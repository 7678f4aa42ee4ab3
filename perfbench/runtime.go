package main

import (
	"runtime/metrics"
	"syscall"
)

// peakRSSMB is the process's maximum resident set size (getrusage; the
// kernel reports KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memStats is one read of the runtime counters the benchmark reports.
type memStats struct {
	allocBytes, allocObjects float64
	gcCPU, totalCPU          float64
}

var memSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readMem() memStats {
	metrics.Read(memSamples)
	v := func(i int) float64 {
		switch memSamples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(memSamples[i].Value.Uint64())
		case metrics.KindFloat64:
			return memSamples[i].Value.Float64()
		}
		return 0
	}
	return memStats{v(0), v(1), v(2), v(3)}
}

// setRuntime books the runtime.* metrics for ops operations between two
// reads.
func (r *run) setRuntime(before, after memStats, ops int) {
	if ops > 0 {
		r.set("runtime.alloc_bytes_per_op", (after.allocBytes-before.allocBytes)/float64(ops))
		r.set("runtime.allocs_per_op", (after.allocObjects-before.allocObjects)/float64(ops))
	}
	r.set("runtime.gc_cpu_frac", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU))
}
