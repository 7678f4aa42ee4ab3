package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		tail float64
		ok   bool
	}{
		{10, 0, false},
		{20, 50, true},  // rank 10, 10 above
		{40, 75, true},  // rank 30, 10 above
		{99, 75, true},  // p90 would leave only 9 above
		{100, 90, true}, // rank 90, exactly 10 above
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		tail, ok := tailPercentile(tc.n)
		if tail != tc.tail || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = p%g, %v; want p%g, %v", tc.n, tail, ok, tc.tail, tc.ok)
		}
		if ok && above(tc.n, tail) < minAbove {
			t.Errorf("n=%d: p%g leaves %d samples above, want >= %d", tc.n, tail, above(tc.n, tail), minAbove)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	s := sorted(xs)
	if got := percentile(s, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
	if got := percentile(s, 100); got != 100 {
		t.Errorf("p100 of 1..100 = %g, want 100", got)
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median of 1..100 = %g, want 50.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3,1,2 = %g, want 2", got)
	}
	if median(nil) != 0 || percentile(nil, 90) != 0 {
		t.Error("statistics of no samples should read 0")
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, name := range []string{"setup_s", "latency_p90_ms", "cluster.continue_ms.switch-policy", "0x", "a.b-c_d"} {
		if !validName(name) {
			t.Errorf("validName(%q) = false, want true", name)
		}
	}
	long := ""
	for i := 0; i < 65; i++ {
		long += "a"
	}
	for _, name := range []string{"", ".hidden", "-x", "_x", "p50 ms", "rtt-µs", "a/b", "a,b", long} {
		if validName(name) {
			t.Errorf("validName(%q) = true, want false", name)
		}
	}
	for _, m := range []map[string]unit{endToEnd, perLayer} {
		for name, u := range m {
			if !validName(name) {
				t.Errorf("declared metric %q breaks the name grammar", name)
			}
			if u.better != "higher" && u.better != "lower" {
				t.Errorf("metric %q: better = %q", name, u.better)
			}
		}
	}
}

// TestBenchmarkJSON pins the metric tables to BENCHMARK.json.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want map[string]unit) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for _, m := range got {
			u, ok := want[m.Name]
			if !ok || u.unit != m.Unit || u.better != m.Better {
				t.Errorf("%s: BENCHMARK.json has %+v, the benchmark reports %+v", kind, m, u)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run by the benchmark", w.Name)
		}
	}
}
