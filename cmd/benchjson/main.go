// Command benchjson converts `go test -bench` text output (read from
// stdin) into a stable JSON document, one record per benchmark with its
// iteration count and every reported metric (ns/op, B/op, allocs/op and
// custom units like Mbps or rtt-µs). Repeated runs of one benchmark
// (`-count N`) fold into a single record: each metric is the median of
// the runs, with the extremes in min and max and the run count in
// runs. It is how the repository's BENCH_core.json performance
// trajectory is produced:
//
//	go test -run NONE -bench . -benchtime 1x -count 5 -benchmem ./... | benchjson > BENCH_core.json
//
// Parsing from text (rather than re-running benchmarks in-process)
// keeps the tool composable: any benchmark selection, count or
// benchtime works, and CI captures exactly what the log shows.
//
// With -baseline the tool becomes a regression gate instead: the parsed
// run is compared against a previously committed JSON document and the
// exit status reports whether any benchmark's median -metric (default
// pods/s, the scheduler-throughput number) dropped by more than
// -maxdrop (default 0.20). CI uses this to fail pull requests that
// slow the indexed scheduling core down:
//
//	go test -run NONE -bench 'LifecycleScale/1k' -benchtime 1x -count 5 ./internal/cluster \
//	  | benchjson -baseline BENCH_core.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"nestless/internal/cli"
)

// Record is one benchmark's result: a parsed result line, or the fold
// of Runs repeated lines, whose Metrics are the per-metric medians and
// Iterations the first run's. Min and Max are set only when Runs > 1.
// Documents written before folding carry no runs field (a single run).
type Record struct {
	Name       string             `json:"name"`
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"`
	Runs       int                `json:"runs,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	Min        map[string]float64 `json:"min,omitempty"`
	Max        map[string]float64 `json:"max,omitempty"`
}

// Doc is the whole converted run.
type Doc struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Record `json:"benchmarks"`
}

func main() {
	baseline := flag.String("baseline", "",
		"compare against this previously written JSON document instead of emitting JSON; exit 1 on regression")
	metric := flag.String("metric", "pods/s",
		"the metric the -baseline comparison gates on (higher is better unless -lower)")
	maxdrop := flag.Float64("maxdrop", 0.20,
		"maximum tolerated fractional regression of -metric vs -baseline before failing")
	lower := flag.Bool("lower", false,
		"the gated metric is lower-is-better (B/op, allocs/op, ns/op): fail on a rise instead of a drop")
	flag.Parse()
	if *maxdrop < 0 || *maxdrop >= 1 {
		cli.BadFlag("-maxdrop must be in [0, 1), got %v", *maxdrop)
	}
	out := parse(bufio.NewScanner(os.Stdin))
	if len(out.Benchmarks) == 0 {
		cli.Fatal("benchjson", fmt.Errorf("no benchmark lines found on stdin"))
	}
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			cli.Fatal("benchjson", err)
		}
		var base Doc
		if err := json.Unmarshal(data, &base); err != nil {
			cli.Fatal("benchjson", fmt.Errorf("%s: %w", *baseline, err))
		}
		lines, failed, err := compare(out, base, *metric, *maxdrop, *lower)
		if err != nil {
			cli.Fatal("benchjson", err)
		}
		for _, l := range lines {
			fmt.Println(l)
		}
		if failed {
			os.Exit(1)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		cli.Fatal("benchjson", err)
	}
}

// compare gates the current run against a baseline document on the
// folded medians: every benchmark present in both with the gated metric
// must not have regressed by more than maxdrop — a drop for
// higher-is-better metrics (throughput), a rise for lower-is-better
// ones (allocations, time).
// Benchmarks on one side only are skipped — the gate checks
// trajectories, not coverage — but comparing zero benchmarks is an
// error, so a renamed benchmark cannot silently turn the gate vacuous.
// A current name that has no exact baseline match is retried without
// its GOMAXPROCS suffix (see trimProcs), so a baseline recorded on one
// CPU gates runs on any core count.
func compare(cur, base Doc, metric string, maxdrop float64, lower bool) (lines []string, failed bool, err error) {
	baseBy := make(map[string]Record, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseBy[r.Package+" "+r.Name] = r
	}
	compared := 0
	for _, r := range cur.Benchmarks {
		b, ok := baseBy[r.Package+" "+r.Name]
		if !ok {
			b, ok = baseBy[r.Package+" "+trimProcs(r.Name)]
		}
		if !ok {
			continue
		}
		cv, cok := r.Metrics[metric]
		bv, bok := b.Metrics[metric]
		if !cok || !bok || bv <= 0 {
			continue
		}
		compared++
		regress := (bv - cv) / bv // fraction the metric dropped
		if lower {
			regress = (cv - bv) / bv // fraction the metric rose
		}
		status := "ok"
		if regress > maxdrop {
			status = "REGRESSION"
			failed = true
		}
		delta := (cv - bv) / bv * 100
		lines = append(lines, fmt.Sprintf("%-60s %s %12.1f -> %12.1f (%+.1f%%, runs %d -> %d) %s",
			r.Name, metric, bv, cv, delta, max(b.Runs, 1), max(r.Runs, 1), status))
	}
	if compared == 0 {
		return nil, false, fmt.Errorf("no benchmark shared metric %q with the baseline — nothing was gated", metric)
	}
	sense := "drop"
	if lower {
		sense = "rise"
	}
	lines = append(lines, fmt.Sprintf("gated %d benchmark(s) on median %s, max tolerated %s %.0f%%",
		compared, metric, sense, maxdrop*100))
	return lines, failed, nil
}

// trimProcs removes one trailing "-<digits>" from a benchmark name:
// the -N that go test appends when GOMAXPROCS is N > 1. The exact name
// is always tried first, so a sub-benchmark named "batch-16" still
// matches itself on one CPU and "batch-16-2" matches it on two.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

func parse(sc *bufio.Scanner) Doc {
	var doc Doc
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBench(line); ok {
				r.Package = pkg
				doc.Benchmarks = append(doc.Benchmarks, r)
			}
		}
	}
	trimSharedProcs(doc.Benchmarks, runtime.GOMAXPROCS(0))
	doc.Benchmarks = fold(doc.Benchmarks)
	return doc
}

// trimSharedProcs strips the -N that go test appends to every benchmark
// name when GOMAXPROCS is N > 1, so a document holds the bare names
// whatever box wrote it and gates any core count. N is this process's
// GOMAXPROCS (benchjson reads go test's output through a pipe on the
// same box), and only a suffix that every name carries is stripped, so
// a name that merely ends in digits, or a run at several -cpu values,
// stays as printed.
func trimSharedProcs(recs []Record, procs int) {
	if procs < 2 {
		return
	}
	suffix := "-" + strconv.Itoa(procs)
	for _, r := range recs {
		if !strings.HasSuffix(r.Name, suffix) {
			return
		}
	}
	for i := range recs {
		recs[i].Name = strings.TrimSuffix(recs[i].Name, suffix)
	}
}

// fold merges the repeated records of each (package, name) into one, in
// first-seen order: every metric becomes the median of its samples
// (the mean of the middle two for an even count), with the extremes
// kept in Min and Max.
func fold(recs []Record) []Record {
	at := make(map[string]int)
	var groups [][]Record
	for _, r := range recs {
		k := r.Package + " " + r.Name
		i, ok := at[k]
		if !ok {
			i = len(groups)
			at[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], r)
	}
	out := make([]Record, 0, len(groups))
	for _, g := range groups {
		r := g[0]
		r.Runs = len(g)
		if len(g) == 1 {
			out = append(out, r)
			continue
		}
		samples := make(map[string][]float64)
		for _, s := range g {
			for m, v := range s.Metrics {
				samples[m] = append(samples[m], v)
			}
		}
		r.Metrics = make(map[string]float64, len(samples))
		r.Min = make(map[string]float64, len(samples))
		r.Max = make(map[string]float64, len(samples))
		for m, vs := range samples {
			slices.Sort(vs)
			n := len(vs)
			r.Metrics[m] = (vs[(n-1)/2] + vs[n/2]) / 2
			r.Min[m], r.Max[m] = vs[0], vs[n-1]
		}
		out = append(out, r)
	}
	return out
}

// parseBench parses one result line: name, iterations, then
// (value, unit) pairs.
func parseBench(line string) (Record, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Record{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Record{}, false
	}
	r := Record{Name: f[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Record{}, false
		}
		r.Metrics[f[i+1]] = v
	}
	return r, len(r.Metrics) > 0
}
