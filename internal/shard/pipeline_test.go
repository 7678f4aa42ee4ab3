package shard

import (
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"nestless/internal/cluster"
	"nestless/internal/ctrace"
	"nestless/internal/faults"
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

// replayCase is one replay golden case.
type replayCase struct {
	name  string // corpus lines name/shards=N, and name/recorded
	users []trace.User
	cfg   Config
	// migrating cases must move pods between worlds, and also replay at
	// 8 shards with a recorder, whose timeline then covers the
	// barrier-time transfer counters.
	migrating bool
}

// The replay golden tables: every case replays at 1, 2, 4 and 8 shards
// with the per-world Leaks audit on, and must return the same Result at
// each, matching its corpus lines (recorded while the strict
// feed-then-advance loop still existed and matched it), and keep the
// books checkBooks reads.

// TestPipelineEquivalence is the pipelining gate: the migrator
// workload, under both migration policies, where prefetched mailboxes
// really do get re-routed after migration barriers. The homeward/
// variant is the workload where migrated pods migrate again, so the two
// policies must pick different worlds.
func TestPipelineEquivalence(t *testing.T) {
	g := golden.Open(t, goldenPath, "pipeline/")
	digests := map[string]uint64{}
	for _, w := range []struct {
		prefix string
		life   time.Duration
	}{{"pipeline/", 12 * time.Minute}, {"pipeline/homeward/", 30 * time.Minute}} {
		for _, policy := range []string{"least-loaded", "locality"} {
			cfg := migratorConfig()
			cfg.MigratePolicy = policy
			c := replayCase{w.prefix + policy, migratorUsers(w.life), cfg, true}
			digests[c.name] = replayGolden(t, g, c).Digest
		}
	}
	if digests["pipeline/homeward/locality"] == digests["pipeline/homeward/least-loaded"] {
		t.Fatal("homeward: locality and least-loaded replayed identically — no migrated pod went home")
	}
}

// TestShardCountEquivalence replays a churned population under each
// placement policy with no faults, with node kills and provisioning
// failures, and with provisioning delays added: the faults/ cases.
func TestShardCountEquivalence(t *testing.T) {
	g := golden.Open(t, goldenPath, "faults/")
	for _, policy := range []cluster.Policy{cluster.Kubernetes, cluster.Hostlo} {
		for si, spec := range []string{
			"",
			"node/*:crash:p=0.02;node/provision:fail:p=0.1",
			"node/*:crash:p=0.03;node/provision:fail:p=0.2;node/provision:delay:n=2:d=60s",
		} {
			cfg := Config{Worlds: 8, MigrateAfter: 20 * time.Minute, Audit: true,
				Cluster: cluster.Config{Policy: policy, Seed: 7, Horizon: 6 * time.Hour}}
			if spec != "" {
				sched, err := faults.ParseSpec(spec)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Cluster.Faults = sched
			}
			replayGolden(t, g, replayCase{name: fmt.Sprintf("faults/%v/%d", policy, si), users: churnUsers(31, 60), cfg: cfg})
		}
	}
}

// replayGolden runs one replay case at every shard count, checks its
// books and corpus lines, and returns its Result.
func replayGolden(t *testing.T, g *golden.Set, c replayCase) Result {
	t.Helper()
	var want Result
	for i, shards := range []int{1, 2, 4, 8} {
		cfg := c.cfg
		cfg.Shards = shards
		got, err := Replay(ctrace.NewSynth(c.users), cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if i > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: -shards %d diverged from -shards 1\n got %+v\nwant %+v", c.name, shards, got.Merged, want.Merged)
		}
		want = got
		g.Check(fmt.Sprintf("%s/shards=%d", c.name, shards), golden.Line(got.Digest, got, nil))
	}
	if c.migrating && want.Migrations == 0 {
		t.Errorf("%s: no pod migrated", c.name)
	}
	checkBooks(t, c.name, want)
	if c.migrating {
		rec := telemetry.New()
		cfg := c.cfg
		cfg.Shards = 8
		cfg.Cluster.Rec = rec
		got, err := Replay(ctrace.NewSynth(c.users), cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: recording perturbed the replay", c.name)
		}
		g.Check(c.name+"/recorded", golden.Line(got.Digest, got, rec))
	}
	return want
}

// checkBooks checks what no world's Leaks can see: every transfer left
// one world and entered another, one per migration, and every submit
// arrived or fell past the horizon.
func checkBooks(t *testing.T, name string, res Result) {
	t.Helper()
	var in, out int
	for _, w := range res.Worlds {
		in += w.TransferredIn
		out += w.TransferredOut
	}
	if in != out || in != res.Migrations {
		t.Errorf("%s: transfer books: in %d out %d migrations %d", name, in, out, res.Migrations)
	}
	if res.Merged.Arrived+res.BeyondHorizon != res.Submits {
		t.Errorf("%s: submit accounting: arrived %d + beyond %d != submits %d",
			name, res.Merged.Arrived, res.BeyondHorizon, res.Submits)
	}
}

// TestMigrationEngages forces cross-world migration — the migrator
// workload with pods that outlive the 40m provisioning stall — and
// checks the books of a 2-shard replay.
func TestMigrationEngages(t *testing.T) {
	cfg := migratorConfig()
	cfg.Shards = 2
	res, err := Replay(ctrace.NewSynth(migratorUsers(3*time.Hour)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 {
		t.Fatal("migration never engaged")
	}
	checkBooks(t, "stall", res)
}

// TestMigrationEquivalence re-runs that migration-heavy replay across
// shard counts: transfers are drained serially at barriers, so they
// must not break schedule independence.
func TestMigrationEquivalence(t *testing.T) {
	users := migratorUsers(3 * time.Hour)
	cfg := migratorConfig()
	var want Result
	for i, shards := range []int{1, 2, 4} {
		cfg.Shards = shards
		got, err := Replay(ctrace.NewSynth(users), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && got.Migrations == 0 {
			t.Fatal("scenario no longer migrates")
		}
		if i > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("-shards %d diverged under migration", shards)
		}
		want = got
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

// TestReplay3Day is the long-horizon bounded-memory smoke: a three-day
// replay keeps every world's trajectory at the fixed 12 points and stays
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
			Policy:  cluster.Kubernetes,
			Seed:    7,
			Horizon: 72 * time.Hour,
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
		if len(res.Samples) != 12 {
			t.Fatalf("world %d trajectory holds %d samples, want 12", w, len(res.Samples))
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
