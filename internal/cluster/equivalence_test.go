package cluster_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"nestless/internal/cloudsim"
	"nestless/internal/cluster"
	"nestless/internal/ctrace"
	"nestless/internal/faults"
	"nestless/internal/golden"
	"nestless/internal/sim"
	"nestless/internal/telemetry"
	"nestless/internal/trace"
)

// The golden suite: the capacity index, the heap pending queue and the
// index-backed neighborhood selection must reproduce the reference
// digests in testdata/golden.txt byte for byte — same final world
// digest, same Result (placements, fleet composition, costs,
// trajectories), same telemetry trace and metrics table — under churn,
// node kills and fault schedules, for every scheduling regime. The
// corpus was recorded while the linear-scan reference scheduler still
// existed, with every case asserted identical to it; "byte-identical
// placement" is the whole contract of the indexed core, and these tests
// are what pins it. The packing cache's entries are also checked
// against fresh optimizer calls directly.

// policyModes are the two scheduling regimes the suite covers: the
// Kubernetes baseline and Hostlo, whose optimizer picks incremental or
// full-fleet passes from the dirty fraction alone.
var policyModes = []struct {
	name   string
	adjust func(*cluster.Config)
}{
	{"kubernetes", func(c *cluster.Config) { c.Policy = cluster.Kubernetes }},
	{"hostlo", func(c *cluster.Config) { c.Policy = cluster.Hostlo }},
}

// goldenPath is the recorded corpus the lifecycle cases are pinned to.
const goldenPath = "testdata/golden.txt"

// lifecycleRun is one recorded lifecycle run.
type lifecycleRun struct {
	world *cluster.Cluster // finished at its horizon
	res   cluster.Result
	trace string // telemetry text trace
	line  string // golden corpus entry
}

// runRecorded executes one lifecycle run with a telemetry recorder
// and audits it for leaks.
func runRecorded(t *testing.T, cfg cluster.Config) lifecycleRun {
	t.Helper()
	rec := telemetry.New()
	cfg.Rec = rec
	c := cluster.New(cfg)
	res := c.Run()
	if leaks := c.Leaks(); len(leaks) != 0 {
		t.Fatalf("leaks:\n  %s", strings.Join(leaks, "\n  "))
	}
	var buf bytes.Buffer
	if err := rec.WriteTextTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty telemetry trace — recorder not wired")
	}
	return lifecycleRun{world: c, res: res, trace: buf.String(), line: golden.Line(c.Digest(), res, rec)}
}

// requireGolden runs cfg and checks it against its golden line.
func requireGolden(t *testing.T, g *golden.Set, name string, cfg cluster.Config) cluster.Result {
	t.Helper()
	run := runRecorded(t, cfg)
	g.Check(name, run.line)
	return run.res
}

// TestIndexedMatchesReferenceChurn sweeps seeded churned workloads
// through both regimes against the recorded reference digests.
func TestIndexedMatchesReferenceChurn(t *testing.T) {
	g := golden.Open(t, goldenPath, "churn/")
	var scheduled int
	for _, seed := range []int64{1, 2, 3, 4} {
		users := trace.Generate(churnConfig(seed, 6))
		for ui, u := range users {
			if ui%2 == 1 {
				continue // half the users keeps the sweep fast
			}
			for _, mode := range policyModes {
				cfg := cluster.Config{
					Seed:      seed,
					Pods:      u.Pods,
					Horizon:   4 * time.Hour,
					BootDelay: 30 * time.Second,
				}
				mode.adjust(&cfg)
				res := requireGolden(t, g, fmt.Sprintf("churn/s%d/u%d/%s", seed, ui, mode.name), cfg)
				scheduled += res.Scheduled
			}
		}
	}
	if scheduled == 0 {
		t.Fatal("no pod was ever scheduled — the sweep exercised nothing")
	}
}

// TestIndexedMatchesReferenceFaults adds node kills, provisioning
// failures and delays on top of churn.
func TestIndexedMatchesReferenceFaults(t *testing.T) {
	g := golden.Open(t, goldenPath, "faults/")
	specs := []string{
		"node/*:crash:p=0.03",
		"node/n0:crash:n=1;node/provision:fail:p=0.2",
		"node/*:crash:p=0.01;node/provision:delay:n=2:d=90s",
	}
	users := trace.Generate(churnConfig(17, 6))
	var kills int
	for si, spec := range specs {
		sched, err := faults.ParseSpec(spec)
		if err != nil {
			t.Fatalf("spec %q: %v", spec, err)
		}
		for _, mode := range policyModes {
			cfg := cluster.Config{
				Seed:      int64(100 + si),
				Pods:      users[si%len(users)].Pods,
				Horizon:   6 * time.Hour,
				BootDelay: 45 * time.Second,
				Faults:    sched,
			}
			mode.adjust(&cfg)
			res := requireGolden(t, g, fmt.Sprintf("faults/%d/%s", si, mode.name), cfg)
			kills += res.Kills
		}
	}
	if kills == 0 {
		t.Error("no run killed a node — the displacement path went unexercised")
	}
}

// TestIndexedMatchesReferenceSplit pins the split-placement path: pods
// wider than the largest machine, which only Hostlo can run, placed
// container by container across nodes.
func TestIndexedMatchesReferenceSplit(t *testing.T) {
	g := golden.Open(t, goldenPath, "split/")
	var pods []trace.Pod
	for i := 0; i < 4; i++ {
		// Each pod totals 1.6 rel CPU — wider than the largest machine
		// (1.0) — in 8 containers of 0.2.
		var ctrs []trace.Container
		for j := 0; j < 8; j++ {
			ctrs = append(ctrs, trace.Container{CPU: 0.2, Mem: 0.2})
		}
		pods = append(pods, trace.Pod{
			ID:         fmt.Sprintf("wide%d", i),
			Arrival:    time.Duration(i) * 10 * time.Minute,
			Lifetime:   90 * time.Minute,
			Containers: ctrs,
		})
	}
	// A couple of small pods churning around them.
	for i := 0; i < 6; i++ {
		pods = append(pods, trace.Pod{
			ID:         fmt.Sprintf("small%d", i),
			Arrival:    time.Duration(i) * 7 * time.Minute,
			Lifetime:   40 * time.Minute,
			Containers: []trace.Container{{CPU: 0.01, Mem: 0.01}},
		})
	}
	cfg := cluster.Config{
		Seed: 5, Pods: pods, Policy: cluster.Hostlo,
		Horizon: 5 * time.Hour, BootDelay: 30 * time.Second,
	}
	res := requireGolden(t, g, "split/hostlo", cfg)
	if res.Failed != 0 {
		t.Fatalf("hostlo: %d wide pods failed — split placement did not engage", res.Failed)
	}
	if res.Scheduled != len(pods) {
		t.Fatalf("hostlo: scheduled %d of %d pods", res.Scheduled, len(pods))
	}
	// Kubernetes must refuse the wide pods.
	cfg.Policy = cluster.Kubernetes
	res = requireGolden(t, g, "split/kubernetes", cfg)
	if res.Failed != 4 {
		t.Fatalf("kubernetes: failed %d, want the 4 wide pods", res.Failed)
	}
}

// TestStreamLeakFree audits the streaming books directly: feed, run,
// then run the leak checker, including an end event that catches its
// pod still pending (huge BootDelay keeps the queue backed up) and one
// for a pod the world never admitted.
func TestStreamLeakFree(t *testing.T) {
	rec := telemetry.New()
	cfg := cluster.Config{
		Policy:    cluster.Kubernetes,
		Horizon:   2 * time.Hour,
		BootDelay: 30 * time.Minute, // pods wait; ends hit pending pods
		Rec:       rec,
	}
	c := cluster.New(cfg)
	c.Start()
	evs := []ctrace.Event{
		{Time: 1 * time.Minute, Kind: ctrace.Submit, Pod: "a", User: "u1",
			Containers: []trace.Container{{CPU: 0.1, Mem: 0.1}}},
		{Time: 2 * time.Minute, Kind: ctrace.Submit, Pod: "b", User: "u1",
			Containers: []trace.Container{{CPU: 0.2, Mem: 0.2}}},
		{Time: 5 * time.Minute, Kind: ctrace.Kill, Pod: "b", User: "u1"}, // still pending
		{Time: 6 * time.Minute, Kind: ctrace.Finish, Pod: "ghost", User: "u1"},
		{Time: 90 * time.Minute, Kind: ctrace.Finish, Pod: "a", User: "u1"},
	}
	for _, ev := range evs {
		if err := c.FeedEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	c.Advance(sim.Time(cfg.Horizon))
	res := c.Finish()
	if leaks := c.Leaks(); len(leaks) > 0 {
		t.Fatalf("leaks: %v", leaks)
	}
	if res.Arrived != 2 || res.Departed != 2 {
		t.Fatalf("result: %+v", res)
	}
	golden.Open(t, goldenPath, "stream-leak/").Check("stream-leak/kubernetes", golden.Line(c.Digest(), res, rec))
}

// TestIncrementalOptimizerEngages proves the dirty-set policy actually
// runs incremental passes under churn. The workload is a large
// long-lived base fleet — so the dirty fraction stays under the
// threshold — with a trickle of short-lived pods churning a few nodes
// at a time.
func TestIncrementalOptimizerEngages(t *testing.T) {
	var pods []trace.Pod
	for i := 0; i < 200; i++ {
		pods = append(pods, trace.Pod{
			ID:         fmt.Sprintf("base%d", i),
			Containers: []trace.Container{{CPU: 0.22, Mem: 0.22}},
		})
	}
	for i := 0; i < 12; i++ {
		pods = append(pods, trace.Pod{
			ID:         fmt.Sprintf("churn%d", i),
			Arrival:    time.Duration(i+1) * 12 * time.Minute,
			Lifetime:   25 * time.Minute,
			Containers: []trace.Container{{CPU: 0.2, Mem: 0.2}},
		})
	}
	base := cluster.Config{
		Seed:      11,
		Pods:      pods,
		Policy:    cluster.Hostlo,
		Horizon:   6 * time.Hour,
		BootDelay: 30 * time.Second,
	}
	// This workload is the one that actually drives incremental passes,
	// so pin the dual-path neighborhood selection (tree tail-walk vs
	// fleet scan) on it too.
	g := golden.Open(t, goldenPath, "incremental/")
	res := requireGolden(t, g, "incremental/hostlo", base)
	if res.OptimizerRuns == 0 {
		t.Fatal("optimizer never ran")
	}
	if res.OptimizerRuns == res.OptimizerFull {
		t.Fatalf("all %d passes were full-fleet — the incremental policy never engaged", res.OptimizerRuns)
	}
}

// repackWorkload builds a churned mixed-size workload (including pods
// wider than the largest machine) big enough that incremental passes
// carry several per-type candidate groups — the shape that actually
// exercises the per-type grouping and the packing cache.
func repackWorkload(seed int64) []trace.Pod {
	users := trace.Generate(churnConfig(seed, 8))
	var pods []trace.Pod
	for _, u := range users {
		pods = append(pods, u.Pods...)
	}
	// A few wide pods so split placement runs under repack too.
	for i := 0; i < 3; i++ {
		var ctrs []trace.Container
		for j := 0; j < 8; j++ {
			ctrs = append(ctrs, trace.Container{CPU: 0.2, Mem: 0.15})
		}
		pods = append(pods, trace.Pod{
			ID:         fmt.Sprintf("wide%d", i),
			Arrival:    time.Duration(i+1) * 20 * time.Minute,
			Lifetime:   2 * time.Hour,
			Containers: ctrs,
		})
	}
	return pods
}

// TestRepackUnderFaults pins the grouped repack under churn, node kills
// and wide split pods, so displacement-heavy repacks are covered. Its
// golden line was recorded while a pass could still fan its
// cache-missing groups across goroutines, and matched at 1, 2, 4 and 8
// workers. It asserts both kinds of pass: with no knob left to force
// one, only the dirty fraction selects a full-fleet pass.
func TestRepackUnderFaults(t *testing.T) {
	sched, err := faults.ParseSpec("node/*:crash:p=0.02")
	if err != nil {
		t.Fatal(err)
	}
	base := cluster.Config{
		Seed:      23,
		Pods:      repackWorkload(23),
		Policy:    cluster.Hostlo,
		Horizon:   6 * time.Hour,
		BootDelay: 30 * time.Second,
		Faults:    sched,
	}
	res := requireGolden(t, golden.Open(t, goldenPath, "repack/"), "repack/hostlo", base)
	if res.OptimizerFull == 0 || res.OptimizerFull == res.OptimizerRuns {
		t.Fatalf("%d of %d passes were full-fleet — want both kinds of pass",
			res.OptimizerFull, res.OptimizerRuns)
	}
	if res.OptimizerGroups < 2 {
		t.Fatalf("only %d candidate groups across the run — the per-type grouping went unexercised", res.OptimizerGroups)
	}
	if res.Kills == 0 {
		t.Fatal("no node was killed — the fault path went unexercised")
	}
}

// TestPackCacheEquivalence pins the cache contract on a whole world: a
// memoized sub-solution substitutes for a fresh OptimizeHostlo call
// byte for byte. Every miss installs a new entry, so a world that
// evicted nothing and holds one entry per miss still holds every
// entry it ever installed, and every hit returned one of them. Each
// entry's Output must then equal a fresh optimizer call on its Input.
func TestPackCacheEquivalence(t *testing.T) {
	run := runRecorded(t, cluster.Config{
		Seed:      29,
		Pods:      repackWorkload(29),
		Policy:    cluster.Hostlo,
		Horizon:   6 * time.Hour,
		BootDelay: 30 * time.Second,
	})
	if run.res.OptimizerCacheHits == 0 {
		t.Fatal("run never hit the cache — the memoization went unexercised")
	}
	snap, err := run.world.Capture()
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	entries := snap.Pack.Entries
	if len(entries) != run.res.OptimizerCacheMisses || len(entries) >= cloudsim.PackCacheCap {
		t.Fatalf("cache holds %d entries after %d misses (capacity %d): entries were evicted or refreshed",
			len(entries), run.res.OptimizerCacheMisses, cloudsim.PackCacheCap)
	}
	cat := cloudsim.Catalog()
	for i, e := range entries {
		in := slices.Clone(e.Input)
		for j := range in {
			in[j].Items = slices.Clone(in[j].Items)
		}
		if fresh := cloudsim.OptimizeHostlo(in, cat); !reflect.DeepEqual(e.Output, fresh) {
			t.Fatalf("entry %d: cached placement differs from a fresh optimize:\n%v\nvs\n%v", i, e.Output, fresh)
		}
	}
	// The world must also still match the recorded reference.
	golden.Open(t, goldenPath, "packcache/").Check("packcache/hostlo", run.line)
}
