package shard

import (
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"nestless/internal/cluster"
	"nestless/internal/ctrace"
	"nestless/internal/golden"
	"nestless/internal/telemetry"
	"nestless/internal/trace"
)

// goldenPath is the recorded corpus the replay cases are pinned to.
const goldenPath = "testdata/golden.txt"

// migratorUsers builds a migration-heavy workload. With a 12m mean
// lifetime a pod transferred at one barrier has its end event inside
// the *next* epoch — which the pipelined runner has already
// prefetched, so the mailbox re-route path is exercised, not just the
// moved-map routing of the serial feed. With 30m, pods outlive their
// first destination's boot wait and migrate again, so the locality
// policy sends them home while least-loaded does not.
func migratorUsers(life time.Duration) []trace.User {
	gcfg := trace.DefaultConfig(5)
	gcfg.Users = 2
	gcfg.MeanArrivalGap = 30 * time.Second
	gcfg.MeanLifetime = life
	return trace.Generate(gcfg)
}

// migratorConfig is the matching replay shape: one overloaded world
// (two users over four worlds), slow boots, eager migration.
func migratorConfig() Config {
	return Config{
		Worlds:       4,
		BarrierEvery: 10 * time.Minute,
		MigrateAfter: 5 * time.Minute,
		Audit:        true,
		Cluster: cluster.Config{
			Policy:    cluster.Kubernetes,
			Horizon:   4 * time.Hour,
			BootDelay: 40 * time.Minute,
		},
	}
}

// TestPipelineEquivalence is the pipelining gate: the overlapped feed
// must reproduce the golden digests — recorded while the strict
// feed-then-advance loop still existed and matched it — at every shard
// count, for both migration policies, on a workload where prefetched
// mailboxes really do get re-routed after migration barriers. The
// homeward/ cases are the workload where migrated pods migrate again,
// so the two policies must pick different worlds.
func TestPipelineEquivalence(t *testing.T) {
	g := golden.Open(t, goldenPath, "pipeline/")
	for _, sc := range []struct {
		prefix string
		life   time.Duration
	}{
		{"pipeline/", 12 * time.Minute},
		{"pipeline/homeward/", 30 * time.Minute},
	} {
		users := migratorUsers(sc.life)
		digests := map[string]uint64{}
		for _, policy := range []string{"least-loaded", "locality"} {
			cfg := migratorConfig()
			cfg.MigratePolicy = policy
			var want Result
			for i, shards := range []int{1, 2, 4, 8} {
				cfg.Shards = shards
				got, err := Replay(ctrace.NewSynth(users), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					want = got
					if want.Migrations == 0 {
						t.Fatalf("%s%s: scenario no longer migrates", sc.prefix, policy)
					}
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s%s: -shards %d diverged from -shards 1\n got %+v\nwant %+v",
						sc.prefix, policy, shards, got.Merged, want.Merged)
				}
				g.Check(fmt.Sprintf("%s%s/shards=%d", sc.prefix, policy, shards), golden.Line(got.Digest, got, nil))
			}
			digests[policy] = want.Digest
			// A recorder pins the shard count to 1; its timeline covers
			// the barrier-time transfer counters of a migrating replay.
			rec := telemetry.New()
			cfg.Cluster.Rec = rec
			got, err := Replay(ctrace.NewSynth(users), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s%s: recording perturbed the replay", sc.prefix, policy)
			}
			g.Check(fmt.Sprintf("%s%s/recorded", sc.prefix, policy), golden.Line(got.Digest, got, rec))
		}
		if sc.prefix == "pipeline/homeward/" && digests["locality"] == digests["least-loaded"] {
			t.Fatal("homeward: locality and least-loaded replayed identically — no migrated pod went home")
		}
	}
}

// TestRerouteSeqOrder pins the mailbox re-route merge: a moved pod's
// events leave the old world's buffer and land in the new owner's in
// global trace-sequence order — the order a serial feed would have
// delivered — while submits never move.
func TestRerouteSeqOrder(t *testing.T) {
	me := func(seq uint64, kind ctrace.EventKind, pod string) mailEvent {
		return mailEvent{ev: ctrace.Event{Kind: kind, Pod: pod}, seq: seq}
	}
	buf := [][]mailEvent{
		{me(0, ctrace.Submit, "a"), me(2, ctrace.Kill, "m1"), me(5, ctrace.Finish, "m2"), me(7, ctrace.Submit, "m2")},
		{me(1, ctrace.Submit, "b"), me(4, ctrace.Finish, "c")},
	}
	reroute(buf, map[string]int{"m1": 1, "m2": 1, "b": 0})
	want := [][]mailEvent{
		// Submits stay put even when their pod is in the delta.
		{me(0, ctrace.Submit, "a"), me(7, ctrace.Submit, "m2")},
		{me(1, ctrace.Submit, "b"), me(2, ctrace.Kill, "m1"), me(4, ctrace.Finish, "c"), me(5, ctrace.Finish, "m2")},
	}
	if !reflect.DeepEqual(buf, want) {
		t.Fatalf("reroute merge:\n got %+v\nwant %+v", buf, want)
	}
	// A delta naming the pod's current world is a no-op.
	buf2 := [][]mailEvent{{me(0, ctrace.Kill, "x")}, nil}
	reroute(buf2, map[string]int{"x": 0})
	if len(buf2[0]) != 1 || len(buf2[1]) != 0 {
		t.Fatalf("same-world delta moved events: %+v", buf2)
	}
}

// policyWorlds builds four live worlds with world 2 holding a deep
// pending queue (slow boots, nothing schedulable yet) and the rest
// empty — the fixture the destination-policy unit tests read through
// QueueLen.
func policyWorlds(t *testing.T) []*cluster.Cluster {
	t.Helper()
	worlds := make([]*cluster.Cluster, 4)
	for w := range worlds {
		worlds[w] = cluster.New(cluster.Config{
			Policy:    cluster.Kubernetes,
			Horizon:   time.Hour,
			BootDelay: 40 * time.Minute,
			Seed:      int64(w),
		})
		worlds[w].Start()
	}
	for i, pod := range []string{"p1", "p2", "p3"} {
		ev := ctrace.Event{
			Time:       time.Duration(i) * time.Second,
			Kind:       ctrace.Submit,
			Pod:        pod,
			User:       "stuck",
			Containers: []trace.Container{{CPU: 0.05, Mem: 0.05}},
		}
		if err := worlds[2].FeedEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	for w := range worlds {
		worlds[w].Advance(5 * 60 * 1e9)
	}
	if worlds[2].QueueLen() == 0 {
		t.Fatal("fixture world 2 has no pending queue")
	}
	return worlds
}

// TestLeastLoadedPolicy pins the default destination choice: shallowest
// queue, ties to the lowest index, never the source.
func TestLeastLoadedPolicy(t *testing.T) {
	worlds := policyWorlds(t)
	var tr cluster.Transfer
	if got := leastLoaded(worlds, 2, tr); got != 0 {
		t.Fatalf("leastLoaded from loaded world = %d, want 0", got)
	}
	if got := leastLoaded(worlds, 0, tr); got != 1 {
		t.Fatalf("leastLoaded from world 0 = %d, want 1 (2 is loaded, ties go low)", got)
	}
}

// TestLocalityPolicy pins the locality choice: the pod goes to its
// user-partition home world unless it is already stuck there, in which
// case least-loaded takes over. Userless pods partition by pod ID.
func TestLocalityPolicy(t *testing.T) {
	worlds := policyWorlds(t)
	// Find user keys homed at world 3 and world 2.
	homed := func(want int) string {
		for _, u := range []string{"u0", "u1", "u2", "u3", "u4", "u5", "u6", "u7", "u8", "u9"} {
			if ctrace.PartitionKey(u, 4) == want {
				return u
			}
		}
		t.Fatalf("no probe user homes at world %d", want)
		return ""
	}
	away := cluster.Transfer{User: homed(3)}
	if got := locality(worlds, 2, away); got != 3 {
		t.Fatalf("locality(away from home) = %d, want home 3", got)
	}
	stuck := cluster.Transfer{User: homed(2)}
	if got := locality(worlds, 2, stuck); got != 0 {
		t.Fatalf("locality(stuck at home) = %d, want least-loaded 0", got)
	}
	byPod := cluster.Transfer{Pod: trace.Pod{ID: homed(3)}}
	if got := locality(worlds, 0, byPod); got != 3 {
		t.Fatalf("locality(userless) = %d, want pod-ID home 3", got)
	}
}

// TestPickPolicyUnknown pins the knob's error surface.
func TestPickPolicyUnknown(t *testing.T) {
	if _, err := pickPolicy("steal-work"); err == nil {
		t.Fatal("pickPolicy accepted an unknown policy")
	}
	if _, err := Replay(ctrace.NewSlice(nil), Config{MigratePolicy: "nope"}); err == nil {
		t.Fatal("Replay accepted an unknown policy")
	}
}

// TestReplaySampleCap pins the bounded-trajectory contract end to end
// through the shard runner: a capped replay stores at most SampleCap
// windows per world with the full run's exact point count and final
// instant, and perturbs nothing outside the trajectories.
func TestReplaySampleCap(t *testing.T) {
	src := synthSource(t, 31, 40)
	base := Config{
		Worlds: 4,
		Audit:  true,
		Cluster: cluster.Config{
			Policy:      cluster.Kubernetes,
			Seed:        7,
			Horizon:     6 * time.Hour,
			SampleEvery: time.Minute,
		},
	}
	fullCfg := base
	fullCfg.Cluster.SampleCap = -1
	full := mustReplay(t, src, fullCfg)
	cap := 25
	capCfg := base
	capCfg.Cluster.SampleCap = cap
	capped := mustReplay(t, src, capCfg)

	for w := range capped.Worlds {
		cw, fw := capped.Worlds[w], full.Worlds[w]
		if len(cw.Samples) > cap {
			t.Fatalf("world %d: %d samples exceed cap %d", w, len(cw.Samples), cap)
		}
		if len(cw.Samples) >= len(fw.Samples) {
			t.Fatalf("world %d: cap did not shrink the trajectory (%d vs %d)", w, len(cw.Samples), len(fw.Samples))
		}
		var points int
		for _, s := range cw.Samples {
			points += s.Points
		}
		if points != len(fw.Samples) {
			t.Fatalf("world %d: windows cover %d points, full run has %d", w, points, len(fw.Samples))
		}
		last := cw.Samples[len(cw.Samples)-1]
		if fullLast := fw.Samples[len(fw.Samples)-1]; last.T != fullLast.T {
			t.Fatalf("world %d: final window instant %v, want %v", w, last.T, fullLast.T)
		}
	}
	// Everything but the trajectories is untouched.
	strip := func(r Result) Result {
		r.Merged.Samples = nil
		ws := make([]cluster.Result, len(r.Worlds))
		copy(ws, r.Worlds)
		for i := range ws {
			ws[i].Samples = nil
		}
		r.Worlds = ws
		return r
	}
	if !reflect.DeepEqual(strip(capped), strip(full)) {
		t.Fatal("SampleCap changed results outside the trajectory")
	}
}

// TestReplay3Day is the long-horizon bounded-memory smoke: a three-day
// replay keeps every world's trajectory under the default cap and stays
// byte-identical across shard counts with the pipelined feed on. Gated
// behind REPLAY_3D=1 — it replays a few hundred thousand events.
func TestReplay3Day(t *testing.T) {
	if os.Getenv("REPLAY_3D") == "" {
		t.Skip("set REPLAY_3D=1 to run the three-day replay smoke")
	}
	gcfg := trace.DefaultConfig(99)
	gcfg.Users = 500
	gcfg.MeanPodsPerUser = 400
	gcfg.MeanArrivalGap = 10 * time.Minute
	gcfg.MeanLifetime = 2 * time.Hour
	users := trace.Generate(gcfg)
	cfg := Config{
		Worlds:       8,
		MigrateAfter: 20 * time.Minute,
		Audit:        true,
		Cluster: cluster.Config{
			Policy:      cluster.Kubernetes,
			Seed:        7,
			Horizon:     72 * time.Hour,
			SampleEvery: time.Minute,
		},
	}
	cfg.Shards = 1
	want, err := Replay(ctrace.NewSynth(users), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Merged.Arrived == 0 || want.Epochs < 4*24*3 {
		t.Fatalf("degenerate three-day replay: %+v over %d epochs", want.Merged, want.Epochs)
	}
	for w, res := range want.Worlds {
		if len(res.Samples) > 512 {
			t.Fatalf("world %d trajectory unbounded: %d samples", w, len(res.Samples))
		}
	}
	for _, shards := range []int{2, 4, 8} {
		cfg.Shards = shards
		got, err := Replay(ctrace.NewSynth(users), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("-shards %d diverged on the three-day replay", shards)
		}
	}
}
