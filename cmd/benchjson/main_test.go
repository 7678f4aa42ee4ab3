package main

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"

	"nestless/internal/cli/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestStrayArgument pins that flag parsing does not stop at a stray
// argument and drop the flags after it: the run exits 2 naming it
// before it reads stdin.
func TestStrayArgument(t *testing.T) {
	_, stderr, code := clitest.Run("stray -baseline BENCH_core.json")
	if code != 2 || !strings.Contains(stderr, `unexpected argument "stray"`) {
		t.Errorf("benchjson stray: exit status %d, want 2 naming the argument:\n%s", code, stderr)
	}
}

func TestParseBenchOutput(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: nestless/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkEngineSchedule  	  200000	        20.03 ns/op	       0 B/op	       0 allocs/op
pkg: nestless
BenchmarkFig4BrFusionMicro/nat         	       3	  20108521 ns/op	       304.4 Mbps	       126.0 rtt-µs	 2327234 B/op	   66160 allocs/op
PASS
ok  	nestless	0.345s
`
	doc := parse(bufio.NewScanner(strings.NewReader(in)))
	if doc.Goos != "linux" || doc.Goarch != "amd64" {
		t.Fatalf("header = %q/%q", doc.Goos, doc.Goarch)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(doc.Benchmarks))
	}
	b0 := doc.Benchmarks[0]
	if b0.Name != "BenchmarkEngineSchedule" || b0.Package != "nestless/internal/sim" {
		t.Fatalf("bench 0 = %q in %q", b0.Name, b0.Package)
	}
	if b0.Iterations != 200000 || b0.Metrics["ns/op"] != 20.03 || b0.Metrics["allocs/op"] != 0 {
		t.Fatalf("bench 0 metrics wrong: %+v", b0)
	}
	b1 := doc.Benchmarks[1]
	if b1.Package != "nestless" || b1.Metrics["Mbps"] != 304.4 || b1.Metrics["rtt-µs"] != 126 {
		t.Fatalf("bench 1 metrics wrong: %+v", b1)
	}
}

// TestParseSchedulerThroughput: the cluster scheduler benchmark reports
// a custom pods/s metric; the converter must carry it into the BENCH
// trajectory like any built-in unit.
func TestParseSchedulerThroughput(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: nestless/internal/cluster
BenchmarkSchedulerThroughput/kubernetes         	       1	   1183881 ns/op	    224685 pods/s	  524288 B/op	    1024 allocs/op
BenchmarkSchedulerThroughput/hostlo             	       1	 143467223 ns/op	      1854 pods/s
PASS
`
	doc := parse(bufio.NewScanner(strings.NewReader(in)))
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(doc.Benchmarks))
	}
	b0 := doc.Benchmarks[0]
	if b0.Name != "BenchmarkSchedulerThroughput/kubernetes" || b0.Package != "nestless/internal/cluster" {
		t.Fatalf("bench 0 = %q in %q", b0.Name, b0.Package)
	}
	if b0.Metrics["pods/s"] != 224685 || b0.Metrics["B/op"] != 524288 {
		t.Fatalf("bench 0 metrics wrong: %+v", b0)
	}
	if doc.Benchmarks[1].Metrics["pods/s"] != 1854 {
		t.Fatalf("bench 1 metrics wrong: %+v", doc.Benchmarks[1])
	}
}

func TestParseIgnoresGarbage(t *testing.T) {
	doc := parse(bufio.NewScanner(strings.NewReader("hello\nBenchmarkBroken abc\nok\n")))
	if len(doc.Benchmarks) != 0 {
		t.Fatalf("parsed %d benchmarks from garbage, want 0", len(doc.Benchmarks))
	}
}

// rec builds a Record for the compare tests.
func rec(pkg, name string, metrics map[string]float64) Record {
	return Record{Name: name, Package: pkg, Iterations: 1, Metrics: metrics}
}

// TestCompareGate covers the -baseline regression mode: pass within
// tolerance, fail beyond it, improvements always fine.
func TestCompareGate(t *testing.T) {
	base := Doc{Benchmarks: []Record{
		rec("p", "BenchmarkLifecycleScale/1k/kubernetes/indexed", map[string]float64{"pods/s": 1000}),
		rec("p", "BenchmarkLifecycleScale/1k/hostlo/indexed", map[string]float64{"pods/s": 500}),
	}}

	// Mild slowdown on one, improvement on the other: within a 20% gate.
	cur := Doc{Benchmarks: []Record{
		rec("p", "BenchmarkLifecycleScale/1k/kubernetes/indexed", map[string]float64{"pods/s": 900}),
		rec("p", "BenchmarkLifecycleScale/1k/hostlo/indexed", map[string]float64{"pods/s": 700}),
	}}
	lines, failed, err := compare(cur, base, "pods/s", 0.20, false)
	if err != nil || failed {
		t.Fatalf("within tolerance: failed=%v err=%v\n%s", failed, err, strings.Join(lines, "\n"))
	}
	if len(lines) != 3 { // two rows + summary
		t.Fatalf("got %d lines, want 3: %v", len(lines), lines)
	}

	// A >20% drop must fail.
	cur.Benchmarks[1].Metrics["pods/s"] = 399
	_, failed, err = compare(cur, base, "pods/s", 0.20, false)
	if err != nil || !failed {
		t.Fatalf("regression not flagged: failed=%v err=%v", failed, err)
	}

	// Benchmarks only on one side are skipped, but comparing nothing at
	// all is an error, not a vacuous pass.
	_, failed, err = compare(Doc{Benchmarks: []Record{
		rec("p", "BenchmarkRenamed", map[string]float64{"pods/s": 1}),
	}}, base, "pods/s", 0.20, false)
	if err == nil || failed {
		t.Fatalf("empty comparison: failed=%v err=%v, want err", failed, err)
	}

	// go test appends -N to every name when GOMAXPROCS is N > 1; the
	// baseline holds the bare names. The exact name wins, then one
	// trailing -<digits> is dropped — so a sub-benchmark whose own name
	// ends in digits matches itself on one CPU and with a suffix.
	procBase := Doc{Benchmarks: []Record{
		rec("p", "BenchmarkReconcilerScale/1k", map[string]float64{"rounds/s": 100}),
		rec("p", "BenchmarkBatch/batch-16", map[string]float64{"rounds/s": 100}),
	}}
	for _, c := range []struct {
		name string
		want bool // gated against the baseline row
	}{
		{"BenchmarkReconcilerScale/1k", true},
		{"BenchmarkReconcilerScale/1k-2", true},
		{"BenchmarkReconcilerScale/1k-16", true},
		{"BenchmarkBatch/batch-16", true},
		{"BenchmarkBatch/batch-16-2", true},
		{"BenchmarkReconcilerScale/1k-2-2", false}, // only one suffix is dropped
		{"BenchmarkReconcilerScale/1k-x", false},
		{"BenchmarkReconcilerScale/1k-", false},
		{"BenchmarkBatch/batch", false},
	} {
		lines, failed, err := compare(Doc{Benchmarks: []Record{
			rec("p", c.name, map[string]float64{"rounds/s": 50}),
		}}, procBase, "rounds/s", 0.20, false)
		if gated := err == nil; gated != c.want {
			t.Errorf("%s: gated=%v, want %v (err %v)", c.name, gated, c.want, err)
			continue
		}
		if c.want && (!failed || !strings.Contains(lines[0], c.name)) {
			t.Errorf("%s: halved rounds/s not flagged: failed=%v\n%s", c.name, failed, strings.Join(lines, "\n"))
		}
	}

	// Records without the gated metric are skipped too.
	_, _, err = compare(Doc{Benchmarks: []Record{
		rec("p", "BenchmarkLifecycleScale/1k/kubernetes/indexed", map[string]float64{"ns/op": 5}),
	}}, base, "pods/s", 0.20, false)
	if err == nil {
		t.Fatal("metric-less comparison should error")
	}
}

// TestCompareGateLower covers -lower: for allocation and time metrics a
// RISE is the regression, and a drop — however large — is always fine.
func TestCompareGateLower(t *testing.T) {
	base := Doc{Benchmarks: []Record{
		rec("p", "BenchmarkTraceReplay/1shard", map[string]float64{"allocs/op": 1000}),
		rec("p", "BenchmarkTraceReplay/8shard", map[string]float64{"allocs/op": 1100}),
	}}

	// Mild rise on one, big improvement on the other: within a 20% gate.
	cur := Doc{Benchmarks: []Record{
		rec("p", "BenchmarkTraceReplay/1shard", map[string]float64{"allocs/op": 1100}),
		rec("p", "BenchmarkTraceReplay/8shard", map[string]float64{"allocs/op": 500}),
	}}
	lines, failed, err := compare(cur, base, "allocs/op", 0.20, true)
	if err != nil || failed {
		t.Fatalf("within tolerance: failed=%v err=%v\n%s", failed, err, strings.Join(lines, "\n"))
	}
	if !strings.Contains(lines[len(lines)-1], "rise") {
		t.Fatalf("summary should name the rise sense: %q", lines[len(lines)-1])
	}

	// A >20% rise must fail.
	cur.Benchmarks[0].Metrics["allocs/op"] = 1201
	_, failed, err = compare(cur, base, "allocs/op", 0.20, true)
	if err != nil || !failed {
		t.Fatalf("alloc rise not flagged: failed=%v err=%v", failed, err)
	}

	// The same risen record gated WITHOUT -lower reads as an
	// improvement and passes — the flag is what flips the sense.
	risen := Doc{Benchmarks: cur.Benchmarks[:1]}
	_, failed, err = compare(risen, base, "allocs/op", 0.20, false)
	if err != nil || failed {
		t.Fatalf("higher-is-better reading should pass: failed=%v err=%v", failed, err)
	}
}

// TestFoldRepeatedRuns: -count N prints N lines per benchmark; they
// fold into one record holding the medians, extremes and run count,
// and the gate judges the medians, so one noisy run cannot fail it.
func TestFoldRepeatedRuns(t *testing.T) {
	in := `pkg: nestless/internal/cluster
BenchmarkLifecycleScale/1k/hostlo 	1	 900 ns/op	 5000 pods/s
BenchmarkReconcilerScale/1k         	1	 100 ns/op	 70 rounds/s
BenchmarkLifecycleScale/1k/hostlo 	1	 800 ns/op	 1000 pods/s
BenchmarkLifecycleScale/1k/hostlo 	1	 700 ns/op	 4000 pods/s
BenchmarkLifecycleScale/1k/hostlo 	1	 600 ns/op	 4800 pods/s
BenchmarkLifecycleScale/1k/hostlo 	1	 500 ns/op	 4500 pods/s
pkg: nestless/internal/other
BenchmarkReconcilerScale/1k         	1	 300 ns/op	 50 rounds/s
`
	doc := parse(bufio.NewScanner(strings.NewReader(in)))
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("folded into %d records, want 3 (same name in two packages stays apart): %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	h := doc.Benchmarks[0]
	if h.Name != "BenchmarkLifecycleScale/1k/hostlo" || h.Runs != 5 {
		t.Fatalf("record 0 = %q with %d runs", h.Name, h.Runs)
	}
	if h.Metrics["pods/s"] != 4500 || h.Min["pods/s"] != 1000 || h.Max["pods/s"] != 5000 || h.Metrics["ns/op"] != 700 {
		t.Fatalf("folded metrics wrong: %+v", h)
	}
	if r := doc.Benchmarks[1]; r.Runs != 1 || r.Min != nil || r.Metrics["rounds/s"] != 70 {
		t.Fatalf("single run should pass through: %+v", r)
	}

	// An even count takes the mean of the middle two.
	even := fold([]Record{
		rec("p", "B", map[string]float64{"x": 4}), rec("p", "B", map[string]float64{"x": 1}),
		rec("p", "B", map[string]float64{"x": 2}), rec("p", "B", map[string]float64{"x": 10}),
	})
	if len(even) != 1 || even[0].Metrics["x"] != 3 {
		t.Fatalf("even fold: %+v", even)
	}

	// A baseline written before folding (no runs, min or max) still
	// loads, and the gate compares medians against it: the 1000 pods/s
	// outlier run alone would be a 78% drop.
	var base Doc
	if err := json.Unmarshal([]byte(`{"benchmarks": [{"name": "BenchmarkLifecycleScale/1k/hostlo",
		"package": "nestless/internal/cluster", "iterations": 1, "metrics": {"pods/s": 4600}}]}`), &base); err != nil {
		t.Fatal(err)
	}
	lines, failed, err := compare(doc, base, "pods/s", 0.20, false)
	if err != nil || failed || !strings.Contains(lines[0], "runs 1 -> 5") {
		t.Fatalf("median gate: failed=%v err=%v\n%s", failed, err, strings.Join(lines, "\n"))
	}
	// A folded baseline round-trips through JSON, and a median drop
	// beyond the tolerance still fails.
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var folded Doc
	if err := json.Unmarshal(data, &folded); err != nil || folded.Benchmarks[0].Runs != 5 {
		t.Fatalf("round trip: err=%v %+v", err, folded.Benchmarks)
	}
	slow := parse(bufio.NewScanner(strings.NewReader(`pkg: nestless/internal/cluster
BenchmarkLifecycleScale/1k/hostlo 	1	 900 ns/op	 3000 pods/s
BenchmarkLifecycleScale/1k/hostlo 	1	 900 ns/op	 3500 pods/s
BenchmarkLifecycleScale/1k/hostlo 	1	 900 ns/op	 9000 pods/s
`)))
	if _, failed, err := compare(slow, folded, "pods/s", 0.20, false); err != nil || !failed {
		t.Fatalf("median drop 4500 -> 3500 not flagged: failed=%v err=%v", failed, err)
	}
}

// TestTrimSharedProcs: the GOMAXPROCS suffix is stripped only when it
// matches the process's and every name carries it.
func TestTrimSharedProcs(t *testing.T) {
	names := func(recs []Record) []string {
		var out []string
		for _, r := range recs {
			out = append(out, r.Name)
		}
		return out
	}
	for _, c := range []struct {
		procs    int
		in, want []string
	}{
		{2, []string{"BenchmarkA-2", "BenchmarkB/batch-16-2"}, []string{"BenchmarkA", "BenchmarkB/batch-16"}},
		{4, []string{"BenchmarkA-2", "BenchmarkB-2"}, []string{"BenchmarkA-2", "BenchmarkB-2"}}, // another box's suffix
		{2, []string{"BenchmarkA-2", "BenchmarkB"}, []string{"BenchmarkA-2", "BenchmarkB"}},     // -cpu 1,2 or a digit name
		{1, []string{"BenchmarkB/batch-16"}, []string{"BenchmarkB/batch-16"}},
	} {
		recs := make([]Record, len(c.in))
		for i, n := range c.in {
			recs[i].Name = n
		}
		trimSharedProcs(recs, c.procs)
		if got := names(recs); strings.Join(got, ",") != strings.Join(c.want, ",") {
			t.Errorf("procs %d %v: got %v, want %v", c.procs, c.in, got, c.want)
		}
	}
}
