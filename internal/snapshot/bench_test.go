package snapshot

import (
	"testing"
	"time"

	"nestless/internal/cluster"
	"nestless/internal/sim"
)

// benchWorld builds the shared base for the fork benchmarks: a
// 200-user Hostlo world with faults, large enough that Capture walks a
// real fleet, event ledger and packing cache, small enough that a
// restore-and-continue iteration stays cheap. Hostlo only re-packs on a
// tick that finds the pending queue empty, and this world's queue first
// drains at 3.5 h (it holds 600-1,000 pods from 10 min on), so the
// world is captured there: by then the optimizer has run and the
// packing cache holds entries for Capture, the codec and Restore to
// carry.
func benchWorld(tb testing.TB) *cluster.Cluster {
	tb.Helper()
	cfg := cluster.Config{
		Seed:      42,
		Pods:      churnPods(42, 200),
		Policy:    cluster.Hostlo,
		Horizon:   4 * time.Hour,
		BootDelay: 30 * time.Second,
		Faults:    mustSpec(tb, "node/*:crash:p=0.02;node/provision:fail:p=0.1"),
	}
	c := cluster.New(cfg)
	c.Start()
	c.Advance(benchCaptureAt)
	return c
}

// benchCaptureAt is the benchmark world's capture instant: its first
// drained tick.
const benchCaptureAt = sim.Time(3*time.Hour + 30*time.Minute)

// BenchmarkSnapshotFork measures the legs of the what-if loop:
// capturing a running world, round-tripping it through the binary
// codec, restoring a branch alone, and restoring a branch that
// continues to the horizon. Every leg reports forks/s — the
// service-facing rate — which the CI gate tracks against
// BENCH_core.json.
func BenchmarkSnapshotFork(b *testing.B) {
	b.Run("capture", func(b *testing.B) {
		c := benchWorld(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Capture(); err != nil {
				b.Fatalf("Capture: %v", err)
			}
		}
		b.StopTimer()
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)/secs, "forks/s")
		}
	})

	b.Run("codec", func(b *testing.B) {
		c := benchWorld(b)
		snap, err := c.Capture()
		if err != nil {
			b.Fatalf("Capture: %v", err)
		}
		enc, err := Encode(snap)
		if err != nil {
			b.Fatalf("Encode: %v", err)
		}
		b.SetBytes(int64(len(enc)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, err := Encode(snap)
			if err != nil {
				b.Fatalf("Encode: %v", err)
			}
			if _, err := Decode(e); err != nil {
				b.Fatalf("Decode: %v", err)
			}
		}
		b.StopTimer()
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)/secs, "forks/s")
		}
	})

	b.Run("restore", func(b *testing.B) {
		snap := benchSnapshot(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.Restore(snap, cluster.RestoreOpts{}); err != nil {
				b.Fatalf("Restore: %v", err)
			}
		}
		b.StopTimer()
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)/secs, "forks/s")
		}
	})

	b.Run("restore-continue", func(b *testing.B) {
		c := benchWorld(b)
		snap, err := c.Capture()
		if err != nil {
			b.Fatalf("Capture: %v", err)
		}
		horizon := sim.Time(4 * time.Hour)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			br, err := cluster.Restore(snap, cluster.RestoreOpts{})
			if err != nil {
				b.Fatalf("Restore: %v", err)
			}
			br.Advance(horizon)
			if res := br.Finish(); res.Arrived == 0 {
				b.Fatal("empty branch result")
			}
		}
		b.StopTimer()
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)/secs, "forks/s")
		}
	})
}

// TestBenchWorldPackCache: the fork benchmarks capture a world whose
// Hostlo optimizer has run, so every leg carries a warm packing cache.
func TestBenchWorldPackCache(t *testing.T) {
	snap := benchSnapshot(t)
	if snap.Res.OptimizerRuns == 0 || snap.Pack == nil || len(snap.Pack.Entries) == 0 {
		t.Fatalf("benchmark world captured with OptimizerRuns=%d and an empty packing cache", snap.Res.OptimizerRuns)
	}
}

// benchSnapshot captures the benchmark world.
func benchSnapshot(tb testing.TB) *cluster.Snapshot {
	tb.Helper()
	snap, err := benchWorld(tb).Capture()
	if err != nil {
		tb.Fatalf("Capture: %v", err)
	}
	return snap
}

// TestRestoreAllocs pins Restore's allocations on the benchmark world
// (415 nodes, 42 of them live, 1,125 pods, 709 pending events, a warm
// packing cache): 219 under Go 1.24. The bound is the count measured
// when node storage moved to arenas, 233 on the earlier 2 h capture,
// plus 10%. Before that, Restore made 885: a heap object, a name and a
// fault point for every node, dead or alive, and a slice for each live
// node's items and each placed pod's placement map. A regression to
// per-node or per-pod objects fails here long before it shows in a
// timing.
func TestRestoreAllocs(t *testing.T) {
	const maxAllocs = 256
	snap := benchSnapshot(t)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := cluster.Restore(snap, cluster.RestoreOpts{}); err != nil {
			t.Fatalf("Restore: %v", err)
		}
	})
	if allocs > maxAllocs {
		t.Fatalf("Restore made %v allocations, want at most %d", allocs, maxAllocs)
	}
}
