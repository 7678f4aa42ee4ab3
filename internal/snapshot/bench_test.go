package snapshot

import (
	"testing"
	"time"

	"nestless/internal/cluster"
	"nestless/internal/sim"
)

// benchWorld builds the shared base for the fork benchmarks: a
// 200-user Hostlo world with faults, advanced to mid-horizon — large
// enough that Capture walks a real fleet, queue and packing cache,
// small enough that a restore-and-continue iteration stays cheap.
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
	c.Arm()
	c.Advance(sim.Time(2 * time.Hour))
	return c
}

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
// (232 nodes, 53 of them live, 1,125 pods, 88 pending events) at the
// count measured when node storage moved to arenas, 233 under Go 1.24,
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
