// Package shard replays one trace event stream across N independent
// cluster shards. Each logical world is an authoritative cluster
// simulation on its own engine — its own clock, fault stream and
// autoscaler — fed a deterministic hash-partition of the trace (by
// user, so one tenant's pods land together). Worlds only touch at
// epoch barriers: every BarrierEvery of virtual time the runner stops
// all worlds at the same instant, folds their state digests, and
// drains the explicit transfer mailboxes that carry pods between
// worlds (cross-shard migration of long-pending pods).
//
// The determinism contract: the number of logical WORLDS fixes the
// partition and every barrier decision, while Shards only picks how
// many goroutines execute those worlds between barriers. Worlds never
// share mutable state and the barrier phases run serially in world
// index order, so the merged results, trajectories, digests and
// telemetry are byte-identical for any shard count — replaying at
// Shards 8 is a wall-clock optimisation, never a different
// experiment. The equivalence suite pins this bit for bit, fault
// schedules included, and testdata/golden.txt pins the digests.
//
// The feed of epoch N+1 is pipelined with the advance of epoch N:
// events are prefetched into per-world mailboxes (double-buffered,
// reused across epochs) on the main goroutine while the worlds execute
// the previous epoch in parallel. Each mailbox entry carries the trace
// read sequence, and a barrier's migration decisions re-route the
// already-prefetched mailboxes by a seq-ordered merge, so every world
// ingests exactly the trace order restricted to it.
//
// A telemetry recorder does not change the schedule: each world
// records on its own child of Cluster.Rec from construction on, and
// the finish phase appends the children in world index order, so the
// recorded timeline is byte-identical for any shard count too.
package shard

import (
	"fmt"
	"io"
	"sort"
	"time"

	"nestless/internal/cluster"
	"nestless/internal/ctrace"
	"nestless/internal/parallel"
	"nestless/internal/sim"
	"nestless/internal/telemetry"
)

// worldSeedStride decorrelates per-world fault streams, a large prime
// (distinct from the population runner's user stride) so world and
// user seed ladders never collide.
const worldSeedStride = 999_983

// Config shapes one sharded replay.
type Config struct {
	// Worlds is the number of logical cluster worlds the trace is
	// hash-partitioned over (default 8). This — not Shards — defines
	// the experiment: changing it changes the partition and therefore
	// the results.
	Worlds int
	// Shards is the number of goroutines executing worlds between
	// barriers (default 1; costsim's -parallel). Any value produces
	// byte-identical output, telemetry included.
	Shards int
	// BarrierEvery is the epoch length: how often all worlds stop at
	// the same virtual instant for the digest fold and the transfer
	// drain (default 15m).
	BarrierEvery time.Duration
	// MigrateAfter enables cross-world migration: at each barrier,
	// pods pending longer than this are transferred to another world
	// (see MigratePolicy). Zero disables migration.
	MigrateAfter time.Duration
	// MigratePolicy picks the destination world for each transferred
	// pod: "least-loaded" (the default; lowest pending-queue depth,
	// ties to the lowest index) or "locality" (the pod's original
	// user-partition world when that is not where it is stuck, else
	// least-loaded). Applied serially in index order at the barrier, so
	// any policy keeps the byte-identity contract across shard counts.
	MigratePolicy string
	// Cluster is the per-world template. Pods must be empty (the trace
	// is the workload); world w runs with Seed + w*worldSeedStride.
	Cluster cluster.Config
	// Audit runs the leak/conservation checker on every world after
	// the horizon and fails the replay on any finding (tests).
	Audit bool
}

// Result is the merged outcome of one sharded replay.
type Result struct {
	// Worlds holds each world's full result, in world index order.
	Worlds []cluster.Result
	// Merged is the population view: counters summed across worlds,
	// trajectories merged pointwise. TTSP95 and FleetTypes do not
	// compose across worlds and are left zero/nil; TTSMean is the
	// exact population mean recomputed from the summed TTSSum.
	Merged cluster.Result
	// Digest folds every world's per-epoch state digest in (epoch,
	// world) order — the replay's schedule-independence fingerprint.
	Digest uint64
	// Epochs is the number of barrier intervals executed.
	Epochs int
	// Migrations counts pods transferred between worlds.
	Migrations int
	// Event accounting for the consumed stream.
	Events, Submits, Ends int
	// BeyondHorizon counts submits past the horizon (never fed).
	BeyondHorizon int
}

// destPolicy picks the destination world for one transferred pod.
// Policies run serially at the barrier in (world, mailbox) order and
// may read any world's state through its barrier-safe accessors.
type destPolicy func(worlds []*cluster.Cluster, src int, tr cluster.Transfer) int

// leastLoaded is the default migration policy: the other world with the
// shallowest pending queue, ties to the lowest index.
func leastLoaded(worlds []*cluster.Cluster, src int, _ cluster.Transfer) int {
	dest := -1
	for d := range worlds {
		if d == src {
			continue
		}
		if dest < 0 || worlds[d].QueueLen() < worlds[dest].QueueLen() {
			dest = d
		}
	}
	return dest
}

// locality prefers the pod's original user-partition world — a pod
// bounced around by earlier migrations goes home, where its tenant's
// other pods (and the fleet shaped by them) live. When the pod is
// stuck in its home world, falls back to least-loaded.
func locality(worlds []*cluster.Cluster, src int, tr cluster.Transfer) int {
	key := tr.User
	if key == "" {
		key = tr.Pod.ID
	}
	if home := ctrace.PartitionKey(key, len(worlds)); home != src {
		return home
	}
	return leastLoaded(worlds, src, tr)
}

// pickPolicy resolves the MigratePolicy knob.
func pickPolicy(name string) (destPolicy, error) {
	switch name {
	case "", "least-loaded":
		return leastLoaded, nil
	case "locality":
		return locality, nil
	}
	return nil, fmt.Errorf("shard: unknown migrate policy %q (want least-loaded or locality)", name)
}

// mailEvent is one prefetched trace event in a per-world mailbox. seq
// is the global trace read sequence: re-routing a mailbox after a
// migration barrier merges by seq, so each world's ingest order is
// exactly the trace order restricted to that world.
type mailEvent struct {
	ev  ctrace.Event
	seq uint64
}

// replayer is one sharded replay in flight.
type replayer struct {
	cfg     Config
	pick    destPolicy
	worlds  []*cluster.Cluster
	recs    []*telemetry.Recorder // per-world children of Cluster.Rec
	horizon sim.Time
	epoch   sim.Time
	res     Result

	// moved routes a migrated pod's later end events to the world that
	// now owns it, overriding the hash partition. delta is the single
	// barrier's slice of it, used to re-route prefetched mailboxes.
	moved map[string]int
	delta map[string]int

	// Trace cursor.
	src     ctrace.Source
	held    ctrace.Event
	hasHeld bool
	eof     bool
	readSeq uint64
}

// Replay drains src through cfg.Worlds cluster worlds to the horizon
// and merges the results. src must yield time-ordered events (every
// ctrace source does).
func Replay(src ctrace.Source, cfg Config) (Result, error) {
	if cfg.Worlds <= 0 {
		cfg.Worlds = 8
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.BarrierEvery <= 0 {
		cfg.BarrierEvery = 15 * time.Minute
	}
	if len(cfg.Cluster.Pods) != 0 {
		return Result{}, fmt.Errorf("shard: Cluster.Pods must be empty (the trace is the workload)")
	}
	pick, err := pickPolicy(cfg.MigratePolicy)
	if err != nil {
		return Result{}, err
	}
	r := &replayer{cfg: cfg, pick: pick, src: src, moved: map[string]int{}, delta: map[string]int{}}
	r.worlds = make([]*cluster.Cluster, cfg.Worlds)
	r.recs = make([]*telemetry.Recorder, cfg.Worlds)
	for w := range r.worlds {
		wcfg := cfg.Cluster
		wcfg.Seed = cfg.Cluster.Seed + int64(w)*worldSeedStride
		wcfg.Rec = cfg.Cluster.Rec.Child()
		wcfg.Rec.BeginRun(fmt.Sprintf("world-%d", w))
		r.recs[w] = wcfg.Rec
		r.worlds[w] = cluster.New(wcfg)
		r.worlds[w].Start()
	}
	r.horizon = r.worlds[0].Horizon()
	r.epoch = sim.Time(cfg.BarrierEvery)

	if err := r.run(); err != nil {
		return Result{}, err
	}
	if err := r.drainTail(); err != nil {
		return Result{}, err
	}
	// Finish phase: close every world's books in index order and lay
	// its recording on the caller's timeline.
	r.res.Worlds = make([]cluster.Result, cfg.Worlds)
	for w := range r.worlds {
		r.res.Worlds[w] = r.worlds[w].Finish()
		if cfg.Audit {
			if leaks := r.worlds[w].Leaks(); len(leaks) > 0 {
				return Result{}, fmt.Errorf("shard: world %d leaks: %v", w, leaks)
			}
		}
		cfg.Cluster.Rec.Append(r.recs[w])
	}
	r.res.Merged = cluster.Merge(r.res.Worlds)
	return r.res, nil
}

// route maps one event to its world: the hash partition, overridden by
// the moved map for end events of migrated pods.
func (r *replayer) route(ev ctrace.Event) int {
	if ev.Kind != ctrace.Submit {
		if w, ok := r.moved[ev.Pod]; ok {
			return w
		}
	}
	return ctrace.Partition(ev, r.cfg.Worlds)
}

// next pulls the trace cursor: the held event if one is parked, else
// the source. ok is false at EOF.
func (r *replayer) next() (ctrace.Event, bool, error) {
	if r.hasHeld {
		r.hasHeld = false
		return r.held, true, nil
	}
	ev, err := r.src.Next()
	if err == io.EOF {
		r.eof = true
		return ctrace.Event{}, false, nil
	}
	if err != nil {
		return ctrace.Event{}, false, err
	}
	return ev, true, nil
}

// book counts one consumed in-horizon event.
func (r *replayer) book(ev ctrace.Event) {
	r.res.Events++
	if ev.Kind == ctrace.Submit {
		r.res.Submits++
	} else {
		r.res.Ends++
	}
}

// run is the epoch loop. It overlaps the serial feed of epoch N+1 with
// the parallel advance of epoch N. Per-world mailboxes are double-
// buffered: the worlds ingest and execute the current buffer on worker
// goroutines while the main goroutine prefetches the next epoch from
// the trace. After the barrier's migration drain, mailboxes already
// prefetched for moved pods are re-routed by a seq-ordered merge, so
// every world ingests exactly the trace order restricted to it.
func (r *replayer) run() error {
	cur := make([][]mailEvent, r.cfg.Worlds)
	next := make([][]mailEvent, r.cfg.Worlds)
	errs := make([]error, r.cfg.Worlds)

	// The first epoch has no previous epoch to overlap with, so
	// mailboxing it would buy nothing but the buffer copies — and on
	// front-loaded traces (replays starting at t=0) epoch zero is the
	// largest. Feed it directly: the worlds are parked at 0 and no
	// migration has happened yet, so the per-world event order is
	// identical either way.
	firstEnd := r.epoch
	if firstEnd > r.horizon {
		firstEnd = r.horizon
	}
	if err := r.feed(nil, firstEnd); err != nil {
		return err
	}
	for t := sim.Time(0); t < r.horizon; {
		end := t + r.epoch
		if end > r.horizon {
			end = r.horizon
		}
		// Advance phase on workers: each world ingests its mailbox (the
		// engine is parked at t, so the events are still in its future)
		// and runs to the barrier.
		done := make(chan struct{})
		go func() {
			parallel.Run(r.cfg.Worlds, r.cfg.Shards, func(w int) {
				for _, me := range cur[w] {
					if err := r.worlds[w].FeedEvent(me.ev); err != nil {
						errs[w] = err
						return
					}
				}
				r.worlds[w].Advance(end)
			})
			close(done)
		}()
		// Overlapped feed phase: prefetch the next epoch while the
		// worlds run. Routing uses the moved map as of the last barrier;
		// this barrier's migrations re-route the buffer below.
		var preErr error
		if end < r.horizon {
			nextEnd := end + r.epoch
			if nextEnd > r.horizon {
				nextEnd = r.horizon
			}
			preErr = r.feed(next, nextEnd)
		}
		<-done
		for w := range errs {
			if errs[w] != nil {
				return errs[w]
			}
		}
		if preErr != nil {
			return preErr
		}
		if err := r.barrier(end); err != nil {
			return err
		}
		reroute(next, r.delta)
		cur, next = next, cur
		for w := range next {
			next[w] = next[w][:0]
		}
		t = end
	}
	return nil
}

// feed consumes every event up to end, booking the consumed-event
// counters on the calling goroutine; events past end park in the held
// slot for the next epoch. Each event is appended to its world's
// mailbox in buf or, when buf is nil, fed straight into the world —
// only valid while the worlds are parked with no advance in flight
// (the first epoch).
func (r *replayer) feed(buf [][]mailEvent, end sim.Time) error {
	for !r.eof {
		ev, ok, err := r.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if sim.Time(ev.Time) > end {
			r.held, r.hasHeld = ev, true
			break
		}
		r.book(ev)
		w := r.route(ev)
		if buf == nil {
			if err := r.worlds[w].FeedEvent(ev); err != nil {
				return err
			}
		} else {
			buf[w] = append(buf[w], mailEvent{ev: ev, seq: r.readSeq})
		}
		r.readSeq++
	}
	return nil
}

// reroute applies one barrier's migration delta to an already-
// prefetched mailbox buffer: end events of pods that just moved leave
// their old world's mailbox and merge into the new owner's by trace
// seq, reproducing the order the trace delivered them in.
func reroute(buf [][]mailEvent, delta map[string]int) {
	if len(delta) == 0 {
		return
	}
	var movedOut []mailEvent
	var dests []int
	for w := range buf {
		kept := buf[w][:0]
		for _, me := range buf[w] {
			if me.ev.Kind != ctrace.Submit {
				if d, ok := delta[me.ev.Pod]; ok && d != w {
					movedOut = append(movedOut, me)
					dests = append(dests, d)
					continue
				}
			}
			kept = append(kept, me)
		}
		buf[w] = kept
	}
	if len(movedOut) == 0 {
		return
	}
	touched := map[int]bool{}
	for i, me := range movedOut {
		buf[dests[i]] = append(buf[dests[i]], me)
		touched[dests[i]] = true
	}
	for d := range touched {
		b := buf[d]
		sort.Slice(b, func(i, j int) bool { return b[i].seq < b[j].seq })
	}
}

// barrier runs the serial, index-ordered epoch close: the digest fold
// and (between interior barriers) the migration drain.
func (r *replayer) barrier(end sim.Time) error {
	r.res.Epochs++
	for w := range r.worlds {
		r.res.Digest = fold(r.res.Digest, r.worlds[w].Digest())
	}
	// Transfer phase: skipped at the final barrier — a pod injected at
	// the horizon would never see a schedule pass.
	clear(r.delta)
	if r.cfg.MigrateAfter > 0 && r.cfg.Worlds > 1 && end < r.horizon {
		if err := r.drainTransfers(); err != nil {
			return err
		}
	}
	return nil
}

// drainTransfers is the barrier's migration phase: every world's
// transfer-out mailbox empties into the world the configured policy
// picks, and the moved map re-routes the pods' future end events.
// Serial and index-ordered, so the outcome is independent of how
// worlds were executed.
func (r *replayer) drainTransfers() error {
	for w := range r.worlds {
		for _, tr := range r.worlds[w].TransferOut(r.cfg.MigrateAfter) {
			dest := r.pick(r.worlds, w, tr)
			if err := r.worlds[dest].InjectTransfer(tr); err != nil {
				return err
			}
			r.moved[tr.Pod.ID] = dest
			r.delta[tr.Pod.ID] = dest
			r.res.Migrations++
		}
	}
	return nil
}

// drainTail books whatever the trace holds past the horizon: counted,
// never fed.
func (r *replayer) drainTail() error {
	if r.hasHeld {
		r.hasHeld = false
		r.pastHorizon(r.held)
	}
	for !r.eof {
		ev, ok, err := r.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		r.pastHorizon(ev)
	}
	return nil
}

// pastHorizon books one unfed tail event.
func (r *replayer) pastHorizon(ev ctrace.Event) {
	r.res.Events++
	if ev.Kind == ctrace.Submit {
		r.res.Submits++
		r.res.BeyondHorizon++
		r.worlds[r.route(ev)].NoteBeyondHorizon()
	} else {
		r.res.Ends++
	}
}

// fold mixes one world digest into the running replay digest (FNV-1a
// over the digest's bytes).
func fold(h, v uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	if h == 0 {
		h = offset
	}
	for s := 0; s < 64; s += 8 {
		h ^= (v >> s) & 0xff
		h *= prime
	}
	return h
}
