package main

import (
	"bufio"
	"strings"
	"testing"
)

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
