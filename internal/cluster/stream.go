package cluster

import (
	"fmt"
	"math"
	"sort"
	"time"

	"nestless/internal/ctrace"
	"nestless/internal/sim"
	"nestless/internal/trace"
)

// Streaming execution: the event-feed face of the cluster world, built
// for trace replay (internal/ctrace) and the sharded runner
// (internal/shard). Instead of stamping the whole workload into
// Config.Pods up front, the caller arms the world with Start, feeds it
// normalized pod events in time order with FeedEvent, advances the
// engine in bounded epochs with Advance, and closes the books with
// Finish. Departures are event-driven — a trace's Finish/Kill row ends
// the pod at its recorded absolute time, whether it spent its life
// running or waiting in the queue — which is exactly the semantics of a
// recorded trace (the synthetic Pods path keeps its relative-lifetime
// semantics untouched).
//
// The shard runner's extra faces live here too: TransferOut/
// InjectTransfer are the explicit transfer mailboxes (voxelcraft's
// transfer-out/transfer-in phases) drained only at tick barriers, and
// Digest is the per-epoch world fingerprint the runner folds across
// shards to prove schedule independence.

// Start arms the world without running anything: it schedules the
// Config.Pods arrivals, then the reconciler tick and trajectory sample
// chains (each self-rescheduling, so the event heap stays small). The
// engine then sits at t=0 for FeedEvent/Advance — the run-to-t face
// that replay and snapshotting share: Start, Advance to any instant,
// Capture, keep advancing. Idempotent.
func (c *Cluster) Start() {
	if c.started {
		return
	}
	c.started = true
	c.eng.Reserve(c.pods.len())
	for i := range c.pods.len() {
		at := sim.Time(c.pod(i).pod.Arrival)
		if at > sim.Time(c.cfg.Horizon) {
			c.res.BeyondHorizon++
			continue
		}
		c.schedEvent(at, evArrive, int64(i), 0)
	}
	c.schedEvent(scaleEvery, evTick, 0, 0)
	c.schedEvent(c.sampleEvery(), evSample, 0, 0)
}

// NoteBeyondHorizon books one submit whose timestamp fell past the
// horizon (the runner counts them while draining the trace tail, so
// replay accounting matches the Pods path's BeyondHorizon).
func (c *Cluster) NoteBeyondHorizon() { c.res.BeyondHorizon++ }

// QueueLen is the current pending-queue depth — the shard runner's
// load signal for choosing transfer destinations.
func (c *Cluster) QueueLen() int { return c.queueLen() }

// Horizon reports the normalized simulation horizon (defaults applied
// by New). The shard runner's epoch loop needs the same horizon the
// world will finalize at, even when the caller left Config.Horizon
// zero.
func (c *Cluster) Horizon() sim.Time { return sim.Time(c.cfg.Horizon) }

// FeedEvent schedules one normalized trace event. Events must be fed
// in time order before Advance passes their timestamp; the shard runner
// guarantees this by feeding a whole epoch before advancing to its
// barrier. Submits past the horizon are booked as BeyondHorizon; ends
// past the horizon are dropped (the pod simply runs out the clock);
// ends for pods this world never admitted are ignored (their submit was
// beyond the horizon or dropped by a lenient reader).
func (c *Cluster) FeedEvent(ev ctrace.Event) error {
	if !c.started {
		return fmt.Errorf("cluster: FeedEvent before Start")
	}
	if ev.Time < 0 {
		return fmt.Errorf("cluster: event for pod %s at negative time %v", ev.Pod, ev.Time)
	}
	if sim.Time(ev.Time) < c.eng.Now() {
		return fmt.Errorf("cluster: event for pod %s at %v fed after the engine reached %v", ev.Pod, ev.Time, c.eng.Now())
	}
	switch ev.Kind {
	case ctrace.Submit:
		if ev.Time > c.cfg.Horizon {
			c.NoteBeyondHorizon()
			return nil
		}
		if _, dup := c.podIndex[ev.Pod]; dup {
			return fmt.Errorf("cluster: duplicate pod %s", ev.Pod)
		}
		p := trace.Pod{ID: ev.Pod, Containers: ev.Containers, Arrival: ev.Time}
		i := c.pods.push(podRun{
			pod:  p,
			user: ev.User,
			cpu:  p.TotalCPU(),
			mem:  p.TotalMem(),
		})
		c.podIndex[ev.Pod] = i
		c.schedEvent(sim.Time(ev.Time), evArrive, int64(i), 0)
	case ctrace.Finish, ctrace.Kill:
		if ev.Time > c.cfg.Horizon {
			return nil
		}
		i, ok := c.podIndex[ev.Pod]
		if !ok {
			c.count("cluster/end_unknown")
			return nil
		}
		var killed int64
		if ev.Kind == ctrace.Kill {
			killed = 1
		}
		c.schedEvent(sim.Time(ev.Time), evEnd, int64(i), killed)
	default:
		return fmt.Errorf("cluster: unknown event kind %v", ev.Kind)
	}
	return nil
}

// endPod retires pod i at the trace's recorded end time, wherever it is
// in its lifecycle: running pods free their placements, pending pods
// leave the queue unplaced, anything else is a stale duplicate.
func (c *Cluster) endPod(i int, killed bool) {
	p := c.pod(i)
	switch p.state {
	case stateRunning:
		p.departGen++ // any scheduled relative-lifetime departure is stale
		c.removePlacement(i)
		p.state = stateDeparted
		c.res.Departed++
		c.count("cluster/departures")
		if killed {
			c.count("cluster/trace_kills")
		}
		c.dirty = true
		if c.queueLen() > 0 {
			c.kickSchedule()
		}
	case statePending:
		c.dequeue(i)
		p.state = stateDeparted
		c.res.Departed++
		c.count("cluster/departures")
		c.count("cluster/ended_pending")
		// Removing a blocked head-of-line pod can unblock the rest.
		if c.queueLen() > 0 {
			c.kickSchedule()
		}
	default:
		c.count("cluster/end_ignored")
	}
}

// dequeue removes pod i's pending-queue entry.
func (c *Cluster) dequeue(i int) { c.pq.removeIdx(i) }

// Advance runs the world to t (inclusive), then parks the clock there.
// Feed everything with timestamps <= t first.
func (c *Cluster) Advance(t sim.Time) { c.eng.RunUntil(t) }

// Finish closes the books at the horizon and returns the result.
func (c *Cluster) Finish() Result {
	c.finalize()
	return c.res
}

// Transfer is one pod crossing worlds through the shard runner's
// mailboxes: everything the receiving world needs to adopt it.
type Transfer struct {
	Pod       trace.Pod // ID, containers, original arrival stamp
	User      string
	ArrivedAt sim.Time // original arrival (keeps time-to-schedule honest)
}

// TransferOut drains this world's transfer-out mailbox: every pending
// pod that has waited at least olderThan since it last entered the
// queue leaves the world, in pod admission order. Call only at a tick
// barrier (engine parked); the shard runner is the only caller.
func (c *Cluster) TransferOut(olderThan time.Duration) []Transfer {
	now := c.eng.Now()
	// The candidate scan reuses a scratch buffer and walks the heap
	// directly: the common every-barrier outcome (nothing old enough)
	// must not allocate.
	idxs := c.transferIdxs[:0]
	for _, e := range c.pq {
		p := c.pod(e.idx)
		if p.state == statePending && now-p.waitSince >= sim.Time(olderThan) {
			idxs = append(idxs, e.idx)
		}
	}
	c.transferIdxs = idxs
	if len(idxs) == 0 {
		return nil
	}
	// Admission order, independent of the heap's array layout.
	sort.Ints(idxs)
	out := make([]Transfer, 0, len(idxs))
	for _, i := range idxs {
		p := c.pod(i)
		c.dequeue(i)
		p.state = stateTransferred
		p.displaced = false
		c.res.TransferredOut++
		c.count("cluster/transfers_out")
		out = append(out, Transfer{
			Pod:       p.pod,
			User:      p.user,
			ArrivedAt: p.arrivedAt,
		})
	}
	return out
}

// InjectTransfer adopts a pod handed over by another world: it joins
// the pending queue at the current instant (a tick barrier) with its
// original arrival stamp. Counted as TransferredIn, not Arrived. A pod
// returning to a world it left earlier re-animates its retired entry —
// the transfer books stay balanced because both legs were counted.
func (c *Cluster) InjectTransfer(tr Transfer) error {
	if i, ok := c.podIndex[tr.Pod.ID]; ok {
		p := c.pod(i)
		if p.state != stateTransferred {
			return fmt.Errorf("cluster: transfer-in duplicate pod %s (%v here)", tr.Pod.ID, p.state)
		}
		p.state = statePending
		p.arrivedAt = tr.ArrivedAt
		p.waitSince = c.eng.Now()
		p.displaced = false
		c.res.TransferredIn++
		c.count("cluster/transfers_in")
		c.enqueue(i)
		c.kickSchedule()
		return nil
	}
	i := c.pods.push(podRun{
		pod:       tr.Pod,
		user:      tr.User,
		cpu:       tr.Pod.TotalCPU(),
		mem:       tr.Pod.TotalMem(),
		arrivedAt: tr.ArrivedAt,
		waitSince: c.eng.Now(),
	})
	c.podIndex[tr.Pod.ID] = i
	c.res.TransferredIn++
	c.count("cluster/transfers_in")
	c.enqueue(i)
	c.kickSchedule()
	return nil
}

// Digest is a deterministic FNV-1a fingerprint of the world's
// authoritative state: the live fleet in creation order (type, used
// sums, item count), the queue depth, and the lifecycle counters. The
// shard runner folds world digests in index order every epoch —
// voxelcraft's digest tick phase — so any divergence between shard
// layouts is caught at the barrier it first appears, not at the
// horizon.
func (c *Cluster) Digest() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime
		}
	}
	for _, n := range c.liveList {
		if !n.live {
			continue
		}
		mix(uint64(n.typ))
		mix(math.Float64bits(n.usedCPU))
		mix(math.Float64bits(n.usedMem))
		mix(uint64(len(n.items)))
	}
	mix(uint64(c.queueLen()))
	mix(uint64(c.res.Arrived))
	mix(uint64(c.res.Scheduled))
	mix(uint64(c.res.Departed))
	mix(uint64(c.res.Failed))
	mix(uint64(c.res.Displaced))
	mix(uint64(c.res.Kills))
	mix(uint64(c.res.ScaleUps))
	mix(uint64(c.res.ScaleDowns))
	mix(uint64(c.res.TransferredIn))
	mix(uint64(c.res.TransferredOut))
	mix(uint64(c.res.Adopted))
	mix(math.Float64bits(c.res.CostDollars))
	return h
}
