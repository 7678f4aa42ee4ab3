package shard

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"nestless/internal/cluster"
	"nestless/internal/ctrace"
	"nestless/internal/trace"
)

// benchSource builds a ~n-pod quantized event stream once; the
// measured loop replays the pre-parsed slice, so the benchmark times
// the sharded simulation — not CSV decoding (BenchmarkTraceParse times
// that). Users scale with n so the partition spreads load across all
// worlds.
func benchSource(n int) *ctrace.Slice {
	users := trace.Generate(trace.GenConfig{
		Seed:              23,
		Users:             n/5 + 1,
		MeanPodsPerUser:   6,
		HeavyUserFraction: 0.1,
		MeanArrivalGap:    90 * time.Second,
		MeanLifetime:      90 * time.Minute,
	})
	var pods int
	for i, u := range users {
		pods += len(u.Pods)
		if pods >= n {
			users = users[:i+1]
			break
		}
	}
	return ctrace.NewSynth(users)
}

// BenchmarkTraceReplay measures sharded replay throughput (pods/s) on
// a ~100k-pod trace at 1, 4 and 8 execution shards over 8 fixed
// worlds. The shard counts produce byte-identical results (pinned by
// TestPipelineEquivalence); the only thing that varies is wall
// clock, so the ratio between the rows IS the parallel speedup. On a
// single-core box the rows tie — the ≥2.5x 4-shard target needs the
// multi-core CI runner.
func BenchmarkTraceReplay(b *testing.B) {
	src := benchSource(100_000)
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("%dshard", shards), func(b *testing.B) {
			var arrived int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Rewind()
				res, err := Replay(src, Config{
					Worlds: 8,
					Shards: shards,
					Cluster: cluster.Config{
						Policy:  cluster.Kubernetes,
						Seed:    7,
						Horizon: 6 * time.Hour,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				arrived = res.Merged.Arrived
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(arrived*b.N)/secs, "pods/s")
			}
		})
	}
}

// BenchmarkTraceParse measures the streaming reader alone: rows/s over
// an in-memory CSV trace (gzip and file I/O excluded).
func BenchmarkTraceParse(b *testing.B) {
	var buf bytes.Buffer
	if err := ctrace.Write(&buf, benchSource(100_000), ctrace.CSV); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	var rows int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := ctrace.NewReader(bytes.NewReader(data), ctrace.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := r.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		rows = r.Stats().Rows
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(rows*b.N)/secs, "rows/s")
	}
}
