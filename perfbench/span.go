package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer: the benchmark wraps each call
// into a public function of the program in a span, so layer times are
// measured from outside the program.
type Span struct {
	Name   string // the call, e.g. "cluster.Advance"
	Layer  string // the layer its self time is booked to
	Start  time.Duration
	End    time.Duration
	Parent int // index of the enclosing span; -1 for a root
}

// Tracer keeps spans in memory until the run ends. Begin and End are
// safe for concurrent use, so spans opened on worker goroutines may
// overlap under one parent. A nil *Tracer records nothing.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

func newTracer() *Tracer {
	return &Tracer{origin: time.Now(), spans: make([]Span, 0, 1<<16)}
}

// Begin opens a span under parent and returns its id.
func (t *Tracer) Begin(name, layer string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{Name: name, Layer: layer, Start: now, Parent: parent})
	t.mu.Unlock()
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Spans returns the recorded spans; call it after every span has ended.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children. Children may overlap one another (worker
// goroutines under one parent); their union is subtracted once.
func selfTimes(spans []Span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for i, s := range spans {
		ivs = ivs[:0]
		for _, k := range kids[i] {
			a, b := spans[k].Start, spans[k].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB time.Duration
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				if v.b > curB {
					curB = v.b
				}
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerSelf sums self time per layer.
func layerSelf(spans []Span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for i, d := range selfTimes(spans) {
		out[spans[i].Layer] += d
	}
	return out
}

// coverage is the share of root span id's wall time that the program's
// layers account for: 1 minus the self time of the benchmark's own
// spans (layer "bench") over the root's duration.
func coverage(spans []Span, root int) float64 {
	d := spans[root].End - spans[root].Start
	if d <= 0 {
		return 0
	}
	return 1 - float64(layerSelf(spans)["bench"])/float64(d)
}

// sumDur totals the durations of the spans named name.
func sumDur(spans []Span, name string) time.Duration {
	var t time.Duration
	for _, s := range spans {
		if s.Name == name {
			t += s.End - s.Start
		}
	}
	return t
}

// dursMS lists the durations of the spans named name, in ms.
func dursMS(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// writeSpans writes spans as tab-separated lines (id, parent, layer,
// name, start ns, end ns) to path, creating its directory.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tlayer\tname\tstart_ns\tend_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%d\n", i, s.Parent, s.Layer, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
