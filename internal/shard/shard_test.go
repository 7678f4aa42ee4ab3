package shard

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"nestless/internal/cluster"
	"nestless/internal/ctrace"
	"nestless/internal/faults"
	"nestless/internal/golden"
	"nestless/internal/telemetry"
	"nestless/internal/trace"
)

// synthSource builds a quantized churny event stream.
func synthSource(t *testing.T, seed int64, users int) *ctrace.Slice {
	t.Helper()
	gcfg := trace.DefaultConfig(seed)
	gcfg.Users = users
	gcfg.MeanArrivalGap = 2 * time.Minute
	gcfg.MeanLifetime = 45 * time.Minute
	return ctrace.NewSynth(trace.Generate(gcfg))
}

func mustReplay(t *testing.T, src *ctrace.Slice, cfg Config) Result {
	t.Helper()
	src.Rewind()
	res, err := Replay(src, cfg)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return res
}

// TestShardCountEquivalence is the PR's gate: the same trace replayed
// at -shards 1 vs 2, 4 and 8 produces byte-identical merged results,
// world results, trajectories and digests — including under node-kill
// and provisioning-fault schedules, and for both policies.
func TestShardCountEquivalence(t *testing.T) {
	src := synthSource(t, 31, 60)
	specs := []string{
		"",
		"node/*:crash:p=0.02;node/provision:fail:p=0.1",
		"node/*:crash:p=0.03;node/provision:fail:p=0.2;node/provision:delay:n=2:d=60s",
	}
	for _, policy := range []cluster.Policy{cluster.Kubernetes, cluster.Hostlo} {
		for _, spec := range specs {
			var sched *faults.Schedule
			if spec != "" {
				var err error
				sched, err = faults.ParseSpec(spec)
				if err != nil {
					t.Fatal(err)
				}
			}
			cfg := Config{
				Worlds:       8,
				MigrateAfter: 20 * time.Minute,
				Audit:        true,
				Cluster: cluster.Config{
					Policy:  policy,
					Seed:    7,
					Horizon: 6 * time.Hour,
					Faults:  sched,
				},
			}
			cfg.Shards = 1
			want := mustReplay(t, src, cfg)
			if want.Merged.Arrived == 0 || want.Merged.Departed == 0 {
				t.Fatalf("degenerate replay: %+v", want.Merged)
			}
			for _, shards := range []int{2, 4, 8} {
				cfg.Shards = shards
				got := mustReplay(t, src, cfg)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("policy %v faults %q: -shards %d diverged from -shards 1\n got %+v\nwant %+v",
						policy, spec, shards, got.Merged, want.Merged)
				}
			}
		}
	}
}

// TestBarrierInvariance pins that without migration the barrier period
// is a pure execution knob: worlds are independent, so replaying with
// a different epoch length changes only how often they synchronize,
// not any result. (Digests fold per epoch and legitimately differ.)
func TestBarrierInvariance(t *testing.T) {
	src := synthSource(t, 13, 40)
	cfg := Config{
		Worlds: 4,
		Audit:  true,
		Cluster: cluster.Config{
			Policy:  cluster.Kubernetes,
			Seed:    3,
			Horizon: 6 * time.Hour,
		},
	}
	cfg.BarrierEvery = 15 * time.Minute
	a := mustReplay(t, src, cfg)
	cfg.BarrierEvery = 7 * time.Minute
	b := mustReplay(t, src, cfg)
	if !reflect.DeepEqual(a.Worlds, b.Worlds) || !reflect.DeepEqual(a.Merged, b.Merged) {
		t.Fatal("barrier period changed replay results without migration")
	}
}

// TestMigrationEngages forces cross-world migration — one overloaded
// world with a long provisioning stall next to idle worlds — and
// checks the merged conservation and per-world books.
func TestMigrationEngages(t *testing.T) {
	// One user (one world gets everything), slow boots, eager migration.
	gcfg := trace.DefaultConfig(5)
	gcfg.Users = 2
	gcfg.MeanArrivalGap = 30 * time.Second
	gcfg.MeanLifetime = 3 * time.Hour
	src := ctrace.NewSynth(trace.Generate(gcfg))
	cfg := Config{
		Worlds:       4,
		Shards:       2,
		BarrierEvery: 10 * time.Minute,
		MigrateAfter: 5 * time.Minute,
		Audit:        true,
		Cluster: cluster.Config{
			Policy:    cluster.Kubernetes,
			Horizon:   4 * time.Hour,
			BootDelay: 40 * time.Minute,
		},
	}
	res, err := Replay(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 {
		t.Fatal("migration never engaged")
	}
	var in, out int
	for _, w := range res.Worlds {
		in += w.TransferredIn
		out += w.TransferredOut
	}
	if in != out || in != res.Migrations {
		t.Fatalf("transfer books: in %d out %d migrations %d", in, out, res.Migrations)
	}
	m := res.Merged
	if m.Arrived != m.Departed+m.Running+m.StillPending+m.Failed {
		t.Fatalf("merged conservation broken: %+v", m)
	}
	if m.Arrived+res.BeyondHorizon != res.Submits {
		t.Fatalf("submit accounting: arrived %d + beyond %d != submits %d",
			m.Arrived, res.BeyondHorizon, res.Submits)
	}
}

// TestMigrationEquivalence re-runs the migration-heavy scenario across
// shard counts: transfers are drained serially at barriers, so they
// must not break schedule independence.
func TestMigrationEquivalence(t *testing.T) {
	gcfg := trace.DefaultConfig(5)
	gcfg.Users = 2
	gcfg.MeanArrivalGap = 30 * time.Second
	gcfg.MeanLifetime = 3 * time.Hour
	users := trace.Generate(gcfg)
	cfg := Config{
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
	cfg.Shards = 1
	want, err := Replay(ctrace.NewSynth(users), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Migrations == 0 {
		t.Fatal("scenario no longer migrates")
	}
	for _, shards := range []int{2, 4} {
		cfg.Shards = shards
		got, err := Replay(ctrace.NewSynth(users), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("-shards %d diverged under migration", shards)
		}
	}
}

// withGhostEnds adds end events for pods the trace never submitted, one
// per hour (time order kept): each lands in FeedEvent's unknown-end
// path, which registers the cluster/end_unknown counter mid-replay.
func withGhostEnds(t *testing.T, src *ctrace.Slice, hours int) *ctrace.Slice {
	t.Helper()
	var evs []ctrace.Event
	for {
		ev, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	for h := 1; h <= hours; h++ {
		ghost := ctrace.Event{Time: time.Duration(h) * time.Hour, Kind: ctrace.Finish, Pod: fmt.Sprintf("ghost%d", h), User: fmt.Sprintf("u%d", h)}
		at := sort.Search(len(evs), func(i int) bool { return evs[i].Time > ghost.Time })
		evs = append(evs[:at], append([]ctrace.Event{ghost}, evs[at:]...)...)
	}
	return ctrace.NewSlice(evs)
}

// TestRecordedReplayShardParity pins that a recorder changes neither
// the schedule nor the result: recorded replays at shards 1, 2, 4 and 8
// export the same text trace and metrics table (each world records on
// its own child, appended in world order), the one golden line pins it,
// and a plain replay returns the same Result. The metrics table's rows
// follow registration order, which the feed-time cluster/end_unknown
// counter takes part in.
func TestRecordedReplayShardParity(t *testing.T) {
	g := golden.Open(t, goldenPath, "telemetry/")
	src := withGhostEnds(t, synthSource(t, 17, 20), 3)
	base := Config{
		Worlds: 4,
		Audit:  true,
		Cluster: cluster.Config{
			Policy:  cluster.Kubernetes,
			Seed:    11,
			Horizon: 4 * time.Hour,
		},
	}
	var want Result
	var wantTel string
	for i, shards := range []int{1, 2, 4, 8} {
		rec := telemetry.New()
		cfg := base
		cfg.Shards = shards
		cfg.Cluster.Rec = rec
		res := mustReplay(t, src, cfg)
		var buf bytes.Buffer
		if err := rec.WriteTextTrace(&buf); err != nil {
			t.Fatal(err)
		}
		rec.Metrics().Table("metrics").WriteText(&buf)
		if i == 0 {
			if !slices.Contains(rec.Metrics().Names(), "cluster/end_unknown") {
				t.Fatal("no unknown end reached a world — the feed-time counter went unexercised")
			}
			// The appended worlds' cluster/* counters total the replay,
			// exactly as Merge totals the worlds' Results.
			reg := rec.Metrics()
			for name, want := range map[string]float64{
				"cluster/cost_dollars":     res.Merged.CostDollars,
				"cluster/final_cost_per_h": res.Merged.FinalCostPerH,
				"cluster/final_nodes":      float64(res.Merged.FinalNodes),
			} {
				if got := reg.Counter(name).Value(); got != want {
					t.Errorf("%s = %v, want the merged %v", name, got, want)
				}
			}
			if res.Merged.CostDollars == 0 {
				t.Error("replay cost nothing — the cost total went unexercised")
			}
			g.Check("telemetry/recorded", golden.Line(res.Digest, res, rec))
			want, wantTel = res, buf.String()
			continue
		}
		if buf.String() != wantTel {
			t.Fatalf("-shards %d: recorded trace or metrics differ from -shards 1", shards)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("-shards %d: recorded result differs from -shards 1", shards)
		}
	}
	cfg := base
	cfg.Shards = 4
	plain := mustReplay(t, src, cfg)
	if !reflect.DeepEqual(plain, want) {
		t.Fatal("recording perturbed the replay results")
	}
	g.Check("telemetry/plain", golden.Line(plain.Digest, plain, nil))
}

// TestReplayRejectsPods pins the workload-source exclusivity guard.
func TestReplayRejectsPods(t *testing.T) {
	cfg := Config{Cluster: cluster.Config{Pods: []trace.Pod{{ID: "x"}}}}
	if _, err := Replay(ctrace.NewSlice(nil), cfg); err == nil {
		t.Fatal("Replay accepted Cluster.Pods")
	}
}

// TestSingleWorldReplayMatchesPods pins the streaming feed against the
// Pods path: a one-world Replay returns exactly cluster.Simulate's
// Result on a workload where their departure semantics coincide.
// BootDelay 0 and ample capacity place every pod at its arrival
// instant, so lifetime-after-placement equals the trace's absolute end
// time. Arrival and end instants are truncated to the trace formats'
// microsecond resolution, so both sides see the same instants.
func TestSingleWorldReplayMatchesPods(t *testing.T) {
	gcfg := trace.DefaultConfig(21)
	gcfg.Users = 30
	gcfg.MeanArrivalGap = 2 * time.Minute
	gcfg.MeanLifetime = 45 * time.Minute
	users := trace.Generate(gcfg)
	var pods []trace.Pod
	for i := range users {
		for j := range users[i].Pods {
			p := &users[i].Pods[j]
			a := p.Arrival - p.Arrival%time.Microsecond
			if p.Lifetime > 0 {
				end := p.Arrival + p.Lifetime
				end -= end % time.Microsecond
				p.Lifetime = end - a
			}
			p.Arrival = a
		}
		pods = append(pods, users[i].Pods...)
	}
	for _, policy := range []cluster.Policy{cluster.Kubernetes, cluster.Hostlo} {
		ccfg := cluster.Config{Policy: policy, Seed: 5, Horizon: 8 * time.Hour, BootDelay: 0}
		got, err := Replay(ctrace.NewSynth(users), Config{Worlds: 1, Audit: true, Cluster: ccfg})
		if err != nil {
			t.Fatal(err)
		}
		ccfg.Pods = pods
		if want := cluster.Simulate(ccfg); !reflect.DeepEqual(got.Worlds[0], want) {
			t.Fatalf("policy %v: stream diverged from Pods run:\n got %+v\nwant %+v", policy, got.Worlds[0], want)
		}
	}
}

// TestMergedSumsEveryCounter pins the population view of a Hostlo
// replay: every int field of Merged is the sum of that field over the
// worlds, optimizer and packing-cache counters included.
func TestMergedSumsEveryCounter(t *testing.T) {
	res := mustReplay(t, synthSource(t, 21, 40), Config{
		Worlds:  4,
		Audit:   true,
		Cluster: cluster.Config{Policy: cluster.Hostlo, Seed: 21, Horizon: 8 * time.Hour},
	})
	if res.Worlds[0].OptimizerGroups == 0 {
		t.Fatal("world 0 ran no optimizer groups; test lost its teeth")
	}
	merged := reflect.ValueOf(res.Merged)
	typ, intType := merged.Type(), reflect.TypeOf(0)
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type != intType {
			continue
		}
		sum := 0
		for _, w := range res.Worlds {
			sum += int(reflect.ValueOf(w).Field(i).Int())
		}
		if got := int(merged.Field(i).Int()); got != sum {
			t.Errorf("Merged.%s = %d, worlds sum to %d", typ.Field(i).Name, got, sum)
		}
	}
}
