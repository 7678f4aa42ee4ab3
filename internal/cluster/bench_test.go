package cluster_test

import (
	"os"
	"testing"
	"time"

	"nestless/internal/cluster"
	"nestless/internal/trace"
)

// benchWorkload flattens a churned population into one pod stream: the
// scheduler sees ~hundreds of arrivals and departures over the horizon.
func benchWorkload() []trace.Pod {
	users := trace.Generate(trace.GenConfig{
		Seed:              11,
		Users:             30,
		MeanPodsPerUser:   8,
		HeavyUserFraction: 0.15,
		MeanArrivalGap:    30 * time.Second,
		MeanLifetime:      45 * time.Minute,
	})
	var pods []trace.Pod
	for _, u := range users {
		pods = append(pods, u.Pods...)
	}
	return pods
}

// scaleWorkload flattens a churned population into one stream of
// exactly n pods. Users scale with n, so fleet size (and with it the
// cost of every placement decision) grows with the workload — the
// regime where the indexed core's O(log n) decisions matter. Users are
// overshot by ~20% so the generator's pod count variance cannot leave
// the stream short of n before truncation.
func scaleWorkload(n int) []trace.Pod {
	users := trace.Generate(trace.GenConfig{
		Seed:              23,
		Users:             n/5 + 1,
		MeanPodsPerUser:   6,
		HeavyUserFraction: 0.1,
		MeanArrivalGap:    90 * time.Second,
		MeanLifetime:      90 * time.Minute,
	})
	var pods []trace.Pod
	for _, u := range users {
		pods = append(pods, u.Pods...)
		if len(pods) >= n {
			break
		}
	}
	if len(pods) > n {
		pods = pods[:n]
	}
	return pods
}

// BenchmarkLifecycleScale is the trace-scale benchmark family behind
// the indexed scheduling core: full lifecycle runs at 1k / 10k / 100k
// pods per policy on the capacity index, heap queue and dirty-set
// incremental optimizer. Rows keep their ".../indexed" suffix so the
// names in BENCH_core.json and the CI gates stay stable.
//
// BootDelay is zero here, unlike BenchmarkSchedulerThroughput: the
// autoscaler admits one provisioning request in flight at a time, so a
// non-zero boot delay caps placements at horizon/delay regardless of
// how many pods arrive (a 6h horizon at 30s/boot schedules ~2.4k pods
// and leaves the rest queued — the benchmark would measure arrival
// bookkeeping, not placement). With instant boots every pod is placed
// and the fleet grows with n, which is the regime the index targets.
func BenchmarkLifecycleScale(b *testing.B) {
	sizes := []struct {
		name string
		n    int
	}{{"1k", 1_000}, {"10k", 10_000}, {"100k", 100_000}, {"1M", 1_000_000}}
	for _, sz := range sizes {
		if sz.n >= 1_000_000 && os.Getenv("BENCH_1M") == "" {
			// The 1M row is the headline "lifecycle in minutes" run
			// (~75s for Hostlo on the reference machine) plus ~2 GB of
			// workload; opt in with BENCH_1M=1. CI runs it as a smoke
			// test; EXPERIMENTS.md records a full example.
			continue
		}
		pods := scaleWorkload(sz.n)
		for _, pol := range []cluster.Policy{cluster.Kubernetes, cluster.Hostlo} {
			b.Run(sz.name+"/"+pol.String()+"/indexed", func(b *testing.B) {
				cfg := cluster.Config{
					Seed:    1,
					Pods:    pods,
					Policy:  pol,
					Horizon: 6 * time.Hour,
				}
				scheduled := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := cluster.Simulate(cfg)
					scheduled += res.Scheduled
				}
				b.StopTimer()
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(scheduled)/secs, "pods/s")
				}
			})
		}
	}
}

// BenchmarkSchedulerThroughput measures end-to-end lifecycle simulation
// speed in pods scheduled per wall-clock second — the capacity-planning
// number for sizing population sweeps.
func BenchmarkSchedulerThroughput(b *testing.B) {
	pods := benchWorkload()
	for _, pol := range []cluster.Policy{cluster.Kubernetes, cluster.Hostlo} {
		b.Run(pol.String(), func(b *testing.B) {
			cfg := cluster.Config{
				Seed:      1,
				Pods:      pods,
				Policy:    pol,
				Horizon:   4 * time.Hour,
				BootDelay: 30 * time.Second,
			}
			scheduled := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := cluster.Simulate(cfg)
				scheduled += res.Scheduled
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(scheduled)/secs, "pods/s")
			}
		})
	}
}
