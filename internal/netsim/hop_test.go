package netsim

import (
	"testing"
	"time"
)

// TestHopStagesAndRecycling: a hop re-armed with Then stays out of the
// pool until its last stage has run; then it is reused with its
// operands cleared.
func TestHopStagesAndRecycling(t *testing.T) {
	eng, n := newWorld()
	var trail []int
	var last func(*Hop)
	last = func(h *Hop) { trail = append(trail, h.N*10) }
	first := func(h *Hop) {
		trail = append(trail, h.N)
		eng.After(time.Microsecond, h.Then(last))
	}
	h := n.NewHop(first)
	h.N = 4
	eng.After(time.Microsecond, h.Fire())
	eng.RunUntil(time.Microsecond)
	if len(n.hopPool) != 0 {
		t.Fatal("a re-armed hop went back to the pool before its last stage")
	}
	eng.Run()
	if len(trail) != 2 || trail[0] != 4 || trail[1] != 40 {
		t.Fatalf("stages ran as %v, want [4 40]", trail)
	}
	if len(n.hopPool) != 1 {
		t.Fatalf("pool holds %d hops after the last stage, want 1", len(n.hopPool))
	}
	if again := n.NewHop(last); again != h || again.N != 0 {
		t.Fatalf("NewHop did not reuse the cleared hop (same=%v, N=%d)", again == h, again.N)
	}
	allocs := testing.AllocsPerRun(100, func() {
		trail = trail[:0]
		h := n.NewHop(first)
		eng.After(time.Microsecond, h.Fire())
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("a pooled two-stage hop allocates %.1f objects, want 0", allocs)
	}
}
