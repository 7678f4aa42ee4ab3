package cluster

import (
	"sort"
	"time"

	"nestless/internal/cloudsim"
	"nestless/internal/sim"
	"nestless/internal/trace"
)

// The scheduler: a pending queue drained in biggest-first order with
// head-of-line blocking, mirroring the static packer's loop shape so a
// no-churn run reproduces cloudsim's packing operation for operation.
//
// The queue yields pods biggest-first with same-size pods in arrival
// order — exactly packKubernetesPolicy's stable sort — and places pods
// one at a time: whole pod onto the most-requested live node that fits,
// otherwise the autoscaler is asked for the cheapest type that fits the
// whole pod and the pass stops until that node is live. Blocking on the
// head pod is what keeps the dynamic placement sequence identical to
// the static one — placing later pods first would let them steal
// capacity the static packer gave the bigger pod.
//
// The queue is the podQueue heap and the fitting node comes from the
// capacity index (O(log fleet)); see capindex.go.

// schedulePass drains the pending queue as far as capacity allows.
func (c *Cluster) schedulePass() {
	c.schedPend = false
	for c.queueLen() > 0 {
		i := c.queueHead()
		p := c.pod(i)
		if p.state != statePending {
			// Defensive: a stale queue entry (should not happen; Leaks
			// would flag it).
			c.queuePop()
			continue
		}
		// Blocked-head memo: schedulePass runs on every event, but most
		// events (pod arrivals while a node boots) touch only the queue,
		// not the capacity index. If the head pod is the one that
		// blocked last time, the index multiset is unchanged since (ver
		// match — tryPlace's tentative split placements bump it, so a
		// revert can't alias), and a capacity request is already in
		// flight, then re-running tryPlace would repeat the exact same
		// failed queries and skip requestNode: a pure no-op. Skip it.
		if c.inflight > 0 && i == c.blockedPod && c.idx.ver == c.blockedVer {
			break
		}
		placed, blocked := c.tryPlace(i)
		if blocked {
			c.blockedPod, c.blockedVer = i, c.idx.ver
			break
		}
		c.queuePop()
		if placed {
			c.markScheduled(i)
		}
		// !placed && !blocked: the pod failed permanently (markFailed
		// already ran inside tryPlace).
	}
	if c.rec != nil {
		c.rec.Instant("cluster/scheduler", "pass", "pending", float64(c.queueLen()))
	}
	// Queue drained: let the Hostlo optimizer re-pack what churn (or
	// the batch placement) fragmented.
	if c.queueLen() == 0 && c.cfg.Policy == Hostlo && c.dirty {
		c.optimize()
	}
}

// queueHead returns the next pod to place without removing it.
func (c *Cluster) queueHead() int { return c.pq.peek().idx }

// queuePop removes the head entry.
func (c *Cluster) queuePop() { c.pq.pop() }

// tryPlace attempts to place pod i. Returns placed=true on success;
// blocked=true when the pod must wait (capacity requested or already in
// flight). placed=false, blocked=false means the pod failed permanently.
func (c *Cluster) tryPlace(i int) (placed, blocked bool) {
	p := c.pod(i)
	fits := cloudsim.CheapestFitting(c.cat, p.cpu, p.mem)
	if fits < 0 {
		// Wider than the largest machine: under whole-pod placement the
		// pod can never run (the static simulation's Skipped class).
		// Hostlo can still run it container by container.
		if c.cfg.Policy != Hostlo {
			c.markFailed(i)
			return false, false
		}
		return c.tryPlaceSplit(i)
	}
	if n := c.bestWholeFit(p.cpu, p.mem); n != nil {
		c.placeItems(n, i, p.pod)
		return true, false
	}
	// No live node fits: ask the autoscaler for the cheapest type that
	// holds the whole pod, one request in flight at a time.
	c.scaleUp(fits)
	return false, true
}

// bestWholeFit returns the most-requested live node that fits
// (cpu, mem), ties broken by creation order — the static packer's
// comparator. It combines the per-type tree queries, threading the
// incumbent through so later trees stop at the first entry that cannot
// beat it.
func (c *Cluster) bestWholeFit(cpu, mem float64) *node {
	bestScore, bestID := 0.0, -1
	for i := range c.idx.trees {
		if e := c.idx.trees[i].FirstFit(cpu, mem, bestScore, bestID); e != nil {
			bestScore, bestID = e.Score, e.Ord
		}
	}
	if bestID < 0 {
		return nil
	}
	return c.nodes[bestID]
}

// addItem lands one container on a node, maintaining the used sums, the
// capacity index and the placement map.
func (c *Cluster) addItem(n *node, i int, it cloudsim.PlacedItem) {
	n.items = append(n.items, it)
	n.usedCPU += it.CPU
	n.usedMem += it.Mem
	c.touchNode(n)
	c.podNodeLink(i, n.id)
}

// placeItems lands every container of a pod on one node, in container
// order (matching the static packer's accumulation order).
func (c *Cluster) placeItems(n *node, i int, pod trace.Pod) {
	for _, ct := range pod.Containers {
		n.items = append(n.items, cloudsim.PlacedItem{Pod: pod.ID, CPU: ct.CPU, Mem: ct.Mem})
		n.usedCPU += ct.CPU
		n.usedMem += ct.Mem
	}
	c.touchNode(n)
	c.podNodeLink(i, n.id)
	c.markDirty(n)
}

// tryPlaceSplit places an oversized pod container by container across
// live nodes (biggest container first, most-requested node that fits).
// All-or-nothing: if some container fits no live node, every tentative
// placement is reverted and a node for the biggest unplaced container
// is requested.
func (c *Cluster) tryPlaceSplit(i int) (placed, blocked bool) {
	p := c.pod(i)
	ctrs := append([]trace.Container(nil), p.pod.Containers...)
	sort.SliceStable(ctrs, func(a, b int) bool {
		return ctrs[a].CPU+ctrs[a].Mem > ctrs[b].CPU+ctrs[b].Mem
	})
	type placement struct {
		n    *node
		prev int // item count before the tentative append
	}
	var done []placement
	revert := func() {
		for k := len(done) - 1; k >= 0; k-- {
			d := done[k]
			d.n.items = d.n.items[:d.prev]
			d.n.recompute()
			c.touchNode(d.n)
		}
		p.onNodes = p.onNodes[:0]
	}
	for _, ct := range ctrs {
		fits := cloudsim.CheapestFitting(c.cat, ct.CPU, ct.Mem)
		if fits < 0 {
			// A single container wider than the largest machine can
			// never run anywhere.
			revert()
			c.markFailed(i)
			return false, false
		}
		n := c.bestWholeFit(ct.CPU, ct.Mem)
		if n == nil {
			revert()
			c.scaleUp(fits)
			return false, true
		}
		done = append(done, placement{n: n, prev: len(n.items)})
		c.addItem(n, i, cloudsim.PlacedItem{Pod: p.pod.ID, CPU: ct.CPU, Mem: ct.Mem})
	}
	for _, d := range done {
		c.markDirty(d.n)
	}
	return true, false
}

// markScheduled finishes a successful placement: departure scheduling,
// time-to-schedule accounting, reschedule counting.
func (c *Cluster) markScheduled(i int) {
	p := c.pod(i)
	now := c.eng.Now()
	p.state = stateRunning
	p.placedAt = now
	if p.displaced {
		p.displaced = false
		c.res.Reschedules++
		c.count("cluster/reschedules")
	}
	if !p.scheduledOnce {
		p.scheduledOnce = true
		c.res.Scheduled++
		c.count("cluster/scheduled")
		c.tts.AddDuration(time.Duration(now - p.arrivedAt))
	}
	if p.remaining > 0 {
		p.departGen++
		at := now + sim.Time(p.remaining)
		if at <= sim.Time(c.cfg.Horizon) {
			c.schedEvent(at, evDepart, int64(i), int64(p.departGen))
		}
	}
}

// markFailed retires a pod that can never be placed under the policy.
func (c *Cluster) markFailed(i int) {
	c.pod(i).state = stateFailed
	c.res.Failed++
	c.count("cluster/failed")
	if c.rec != nil {
		c.rec.Instant("cluster/scheduler", "unschedulable", "pod", float64(i))
	}
}
