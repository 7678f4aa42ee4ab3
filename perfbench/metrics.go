package main

import (
	"fmt"
	"time"

	"nestless/internal/cluster"
)

// unit is a metric's unit and the direction that is better.
type unit struct{ unit, better string }

// endToEnd lists the untraced metrics every workload reports. What one
// operation is depends on the workload (see NOTES.md): throughput counts
// pods on replay, queries on whatif and sweeps on datapath; latency
// times one barrier epoch, one query and one figure cell.
var endToEnd = map[string]unit{
	"throughput_per_s": {"1/s", "higher"},
	"latency_p50_ms":   {"ms", "lower"},
	"latency_p90_ms":   {"ms", "lower"},
	"setup_s":          {"s", "lower"},
	"peak_rss_mb":      {"MB", "lower"},
}

// datapathModes names the packet-level topologies of the datapath
// sweep, in sweep order.
var datapathModes = []string{
	"fig4-nat", "fig4-brfusion", "fig4-nocont",
	"fig10-samenode", "fig10-hostlo", "fig10-nat", "fig10-overlay",
}

// whatifKinds are the query kinds of the whatif mix; continuedKinds are
// those whose branch delta the traced run can apply through public
// cluster calls.
var (
	whatifKinds    = []string{"baseline", "add-pods", "switch-policy", "kill-nodes"}
	continuedKinds = []string{"baseline", "switch-policy", "kill-nodes"}
)

// traceLayers are the layers spans book self time to; "bench" is the
// benchmark's own code between calls.
var traceLayers = []string{"bench", "ctrace", "shard", "cluster", "snapshot", "scenario", "netperf", "figures"}

// perLayer lists the traced metrics. Every workload prints all of them;
// a layer the workload does not exercise reads 0.
var perLayer = func() map[string]unit {
	m := map[string]unit{
		"ctrace.parse_s":        {"s", "lower"},
		"ctrace.rows":           {"count", "higher"},
		"ctrace.ns_per_row":     {"ns", "lower"},
		"ctrace.allocs_per_row": {"count", "lower"},

		"shard.feed_s":         {"s", "lower"},
		"shard.advance_s":      {"s", "lower"},
		"shard.advance_crit_s": {"s", "lower"},
		"shard.digest_s":       {"s", "lower"},
		"shard.finish_s":       {"s", "lower"},
		"shard.serial_frac":    {"ratio", "lower"},
		"shard.imbalance":      {"ratio", "lower"},
		"shard.speedup_bound":  {"ratio", "higher"},
		"shard.epochs":         {"count", "higher"},
		"shard.events":         {"count", "higher"},

		"cluster.scheduled":        {"count", "higher"},
		"cluster.scale_ups":        {"count", "lower"},
		"cluster.reconcile_rounds": {"count", "lower"},
		"cluster.peak_nodes":       {"count", "lower"},
		"cluster.optimizer_runs":   {"count", "lower"},
		"cluster.optimizer_full":   {"count", "lower"},
		"cluster.optimizer_groups": {"count", "lower"},
		"cloudsim.cache_hit_ratio": {"ratio", "higher"},

		"snapshot.restore_ms": {"ms", "lower"},
		"snapshot.capture_ms": {"ms", "lower"},
		"snapshot.encode_ms":  {"ms", "lower"},
		"snapshot.decode_ms":  {"ms", "lower"},
		"snapshot.bytes":      {"B", "lower"},

		"figures.fig11_ms": {"ms", "lower"},

		"runtime.alloc_bytes_per_op": {"B", "lower"},
		"runtime.allocs_per_op":      {"count", "lower"},
		"runtime.gc_cpu_frac":        {"ratio", "lower"},

		"trace.overhead": {"ratio", "lower"},
		"trace.coverage": {"ratio", "higher"},
		"trace.spans":    {"count", "lower"},
	}
	for _, k := range continuedKinds {
		m["cluster.continue_ms."+k] = unit{"ms", "lower"}
	}
	for _, k := range whatifKinds {
		m["whatif.kind_p50_ms."+k] = unit{"ms", "lower"}
	}
	for _, mode := range datapathModes {
		m["scenario.build_ms."+mode] = unit{"ms", "lower"}
		m["netperf.stream_ms."+mode] = unit{"ms", "lower"}
		m["netperf.rr_ms."+mode] = unit{"ms", "lower"}
		m["sim.events."+mode] = unit{"count", "lower"}
		m["sim.ns_per_event."+mode] = unit{"ns", "lower"}
	}
	for _, l := range traceLayers {
		m["self_s."+l] = unit{"s", "lower"}
	}
	return m
}()

// minCoverage is the share of a traced run's wall time its layer spans
// must cover.
const minCoverage = 0.9

// setTraceMetrics books the trace.* and self_s.* metrics of a traced
// run rooted at span root, writes the spans out, and checks coverage.
func (r *run) setTraceMetrics(workload string, spans []Span, root int) error {
	for layer, d := range layerSelf(spans) {
		r.set("self_s."+layer, d.Seconds())
	}
	cov := coverage(spans, root)
	r.set("trace.coverage", cov)
	r.set("trace.spans", float64(len(spans)))
	path := fmt.Sprintf(".bench_build/spans/%s-seed%d.tsv", workload, r.seed)
	if err := writeSpans(path, spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	r.notef("trace: %d spans written to %s; wall %.3f s, layer spans cover %.1f%%",
		len(spans), path, (spans[root].End - spans[root].Start).Seconds(), 100*cov)
	if cov < minCoverage {
		return fmt.Errorf("layer spans cover %.1f%% of the traced wall time, want >= %.0f%%", 100*cov, 100*minCoverage)
	}
	return nil
}

// setLatency books latency_p50_ms and latency_p90_ms from samples in
// ms. Too few samples for the p90 fail the run.
func (r *run) setLatency(what string, lat []float64) {
	s := sorted(lat)
	if above(len(s), 90) < minAbove {
		r.fail(fmt.Errorf("%d %s latency samples leave fewer than %d above the p90", len(s), what, minAbove))
		if len(s) == 0 {
			r.set("latency_p50_ms", 0)
			r.set("latency_p90_ms", 0)
			return
		}
	}
	tail, _ := tailPercentile(len(s))
	r.set("latency_p50_ms", median(s))
	r.set("latency_p90_ms", percentile(s, 90))
	r.notef("latency: one %s, n=%d, p50=%.3f ms, p90=%.3f ms; highest percentile with >=%d samples above: p%g = %.3f ms",
		what, len(s), median(s), percentile(s, 90), minAbove, tail, percentile(s, tail))
}

// setClusterCounts books the cluster.* counters summed over results.
func (r *run) setClusterCounts(rs []cluster.Result) {
	var sum cluster.Result
	for _, x := range rs {
		sum.Scheduled += x.Scheduled
		sum.ScaleUps += x.ScaleUps
		sum.ReconcileRounds += x.ReconcileRounds
		sum.PeakNodes += x.PeakNodes
		sum.OptimizerRuns += x.OptimizerRuns
		sum.OptimizerFull += x.OptimizerFull
		sum.OptimizerGroups += x.OptimizerGroups
		sum.OptimizerCacheHits += x.OptimizerCacheHits
		sum.OptimizerCacheMisses += x.OptimizerCacheMisses
	}
	r.set("cluster.scheduled", float64(sum.Scheduled))
	r.set("cluster.scale_ups", float64(sum.ScaleUps))
	r.set("cluster.reconcile_rounds", float64(sum.ReconcileRounds))
	r.set("cluster.peak_nodes", float64(sum.PeakNodes))
	r.set("cluster.optimizer_runs", float64(sum.OptimizerRuns))
	r.set("cluster.optimizer_full", float64(sum.OptimizerFull))
	r.set("cluster.optimizer_groups", float64(sum.OptimizerGroups))
	r.set("cloudsim.cache_hit_ratio", ratio(float64(sum.OptimizerCacheHits), float64(sum.OptimizerCacheHits+sum.OptimizerCacheMisses)))
}

// sinceMS is the wall time since t0 in ms.
func sinceMS(t0 time.Time) float64 { return ms(time.Since(t0)) }
