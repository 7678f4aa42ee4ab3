package main

import (
	"testing"
	"time"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []Span{
		{Name: "root", Layer: "bench", Start: 0, End: 100, Parent: -1},
		{Name: "a", Layer: "shard", Start: 10, End: 40, Parent: 0},
		{Name: "b", Layer: "shard", Start: 30, End: 60, Parent: 0},    // overlaps a
		{Name: "c", Layer: "cluster", Start: 80, End: 120, Parent: 0}, // clipped at the parent's end
		{Name: "d", Layer: "cluster", Start: 35, End: 38, Parent: 1},  // inside both a and b
		{Name: "e", Layer: "ctrace", Start: 70, End: 75, Parent: 0},
	}
	want := []time.Duration{
		100 - (50 + 5 + 20), // union of a∪b = [10,60], e, c clipped to [80,100]
		30 - 3,
		30,
		40,
		3,
		5,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	layers := layerSelf(spans)
	if layers["bench"] != 25 || layers["shard"] != 57 || layers["cluster"] != 43 || layers["ctrace"] != 5 {
		t.Errorf("layer self times = %v", layers)
	}
	if c := coverage(spans, 0); c != 0.75 {
		t.Errorf("coverage = %g, want 0.75", c)
	}
}

func TestTracerNilAndConcurrent(t *testing.T) {
	var nilTr *Tracer
	nilTr.End(nilTr.Begin("x", "bench", -1)) // records nothing, must not panic

	tr := newTracer()
	root := tr.Begin("root", "bench", -1)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 100; i++ {
				tr.End(tr.Begin("work", "cluster", root))
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 401 {
		t.Fatalf("%d spans, want 401", len(spans))
	}
	for i, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %d ends before it starts", i)
		}
	}
	if self := selfTimes(spans)[root]; self < 0 || self > spans[root].End-spans[root].Start {
		t.Errorf("root self time %v out of range", self)
	}
}
