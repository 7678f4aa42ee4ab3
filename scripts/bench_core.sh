#!/bin/sh
# Regenerate BENCH_core.json, the repository's performance trajectory:
# every Benchmark* in the tree, one iteration per run (-benchtime 1x
# keeps the sweep fast) and five runs each (-count 5), with allocation
# stats, converted to JSON by cmd/benchjson, which folds each
# benchmark's runs into the median with min and max beside it. The
# gates compare medians, so one noisy run on a shared box cannot trip
# them.
#
# Custom metrics ride along with the built-in ones — notably the
# cluster scheduler throughput (BenchmarkSchedulerThroughput, pods/s
# per policy), the trace-scale lifecycle family
# (BenchmarkLifecycleScale, 1k/10k/100k pods per policy on the indexed
# scheduler — the linear-scan reference and legacy rows are retired),
# the sharded trace replay (BenchmarkTraceReplay, pods/s at
# 1/4/8 shards over a ~100k-pod stream), the streaming CSV reader
# alone (BenchmarkTraceParse, rows/s over the same trace), the world
# snapshot/fork engine (BenchmarkSnapshotFork, forks/s for capture, codec round-trip
# and restore-and-continue on a 200-user Hostlo world), and the cloud
# reconciler (BenchmarkReconcilerScale, machine-set convergence
# rounds/s over 1k/10k-node fleets). CI gates on the committed copy,
# each gate step running its benchmarks with -count 5 too: benchjson
# -baseline fails the build when a median LifecycleScale/1k or
# TraceReplay/1shard pods/s figure drops more than 20% below this
# file, when TraceReplay/1shard allocs/op RISES more than 20% above it
# (benchjson -lower — the pooled replay datapath is an allocation
# budget, not just a throughput number), when a Fig4BrFusionMicro,
# Fig10HostloMicro or Fig11MemcachedHostlo allocs/op median rises more
# than 20% (the datapath allocation gate: pooled frames, packets and
# hops make those counts a budget, and being deterministic they do not
# flake on a shared runner), when TraceParse rows/s drops
# more than 20% (benchjson -metric rows/s), or LifecycleScale/100k/hostlo,
# any SnapshotFork forks/s leg, or a ReconcilerScale rounds/s leg by
# more than 30% (the wider margin absorbs shared-runner noise); CI also
# smoke-runs the BENCH_1M=1-gated 1M-pod Hostlo lifecycle, the
# REPLAY_3D=1-gated 3-day multi-day replay equivalence test, and
# uploads the 100k CPU profile as an artifact (see
# .github/workflows/ci.yml).
#
# Usage, from the repository root:
#
#   sh scripts/bench_core.sh            # writes BENCH_core.json
#   sh scripts/bench_core.sh out.json   # custom destination
set -e

out="${1:-BENCH_core.json}"
go test -run NONE -bench . -benchtime 1x -count 5 -benchmem ./... | go run ./cmd/benchjson > "$out"
echo "wrote $out" >&2
