package cluster

import (
	"strconv"
	"time"

	"nestless/internal/sim"
)

// The autoscaler: queue pressure scales the fleet up (one provisioning
// request in flight at a time, so a burst of arrivals does not buy a
// node per pod before the first one boots), the periodic tick scales it
// down (a node must sit empty for idleGrace before it is reclaimed —
// hysteresis against churn buying the same node twice). Node kills also
// live on the tick: the fault injector is consulted once per live node
// per tick at point "node/<name>".
//
// This file holds the machine-lifecycle mechanics; the declarative
// reconciler's decision layer (zone spread, spot mix, machine sets)
// lives in reconciler.go.

// The control loop's fixed periods. Every recorded digest depends on
// them, so they are constants, not configuration.
const (
	// scaleEvery is the tick period: node-kill consultation, idle
	// reclaim and Hostlo re-optimisation happen on ticks.
	scaleEvery = 30 * time.Second
	// idleGrace is the scale-down hysteresis: a node must sit empty
	// this long before it is reclaimed.
	idleGrace = 5 * time.Minute
	// provisionRetryEvery spaces retries of a failed provisioning
	// attempt.
	provisionRetryEvery = 10 * time.Second
)

// requestNode asks for one node of catalog type typ, placed in the
// given zone, as spot or on-demand capacity.
func (c *Cluster) requestNode(typ, zone int, spot bool) {
	c.inflight++
	c.count("cluster/provision_requests")
	c.tryProvision(typ, zone, spot)
}

// provArgs packs a provisioning request's (zone, spot) into the B slot
// of an evProvRetry/evNodeReady ledger event; the pre-cloud encoding
// (B = 0) decodes to zone 0, on-demand.
func provArgs(zone int, spot bool) int64 {
	b := int64(zone) << 1
	if spot {
		b |= 1
	}
	return b
}

// tryProvision runs one provisioning attempt through the fault points
// "node/provision" (fail → retry after provisionRetryEvery; delay →
// added to the boot latency).
func (c *Cluster) tryProvision(typ, zone int, spot bool) {
	if err := c.inj.OpFail("node/provision"); err != nil {
		c.res.ProvisionRetries++
		c.count("cluster/provision_retries")
		if c.rec != nil {
			c.rec.Instant("cluster/autoscaler", "provision-retry", "type", float64(typ))
		}
		c.schedEvent(c.eng.Now()+provisionRetryEvery, evProvRetry, int64(typ), provArgs(zone, spot))
		return
	}
	delay := sim.Time(c.cfg.BootDelay) + sim.Time(c.inj.OpDelay("node/provision"))
	if delay <= 0 {
		c.nodeReady(typ, zone, spot)
		return
	}
	c.schedEvent(c.eng.Now()+delay, evNodeReady, int64(typ), provArgs(zone, spot))
}

// nodeReady turns a provisioning request into a live node and re-kicks
// the scheduler, which was blocked waiting for this capacity.
func (c *Cluster) nodeReady(typ, zone int, spot bool) {
	c.inflight--
	n := c.createNode(typ, zone, spot, c.eng.Now())
	c.res.ScaleUps++
	c.count("cluster/scale_ups")
	if spot {
		c.res.SpotProvisions++
		c.count("cluster/spot_provisions")
	}
	if c.rec != nil {
		c.rec.Instant("cluster/autoscaler", "node-ready", "type", float64(typ))
	}
	n.idleSince = c.eng.Now()
	if c.queueLen() > 0 {
		c.kickSchedule()
	}
}

// createNode allocates a live node of type typ born at now, tracks the
// fleet peak, and enters the node into the live list and the capacity
// index. The cost clock starts here; accrue settles it at termination
// or the horizon.
func (c *Cluster) createNode(typ, zone int, spot bool, now sim.Time) *node {
	n := &node{
		id:        len(c.nodes),
		typ:       typ,
		bornAt:    now,
		idleSince: now,
		live:      true,
		zone:      zone,
		spot:      spot,
	}
	n.name = "n" + strconv.Itoa(n.id)
	n.faultPoint = "node/" + n.name
	if spot {
		n.spotPoint = "spot/" + n.name
	}
	n.priceH = c.price(typ, zone, spot)
	c.nodes = append(c.nodes, n)
	c.liveList = append(c.liveList, n)
	c.liveCount++
	c.zoneLive[zone]++
	if spot {
		c.spotLive++
	}
	c.touchNode(n)
	if c.liveCount > c.res.PeakNodes {
		c.res.PeakNodes = c.liveCount
	}
	return n
}

// terminate settles a node's bill and removes it from the live fleet
// and the capacity index. The caller must have stripped its items
// first. The liveList entry is compacted lazily.
func (c *Cluster) terminate(n *node, now sim.Time) {
	c.accrue(n, now)
	n.live = false
	c.liveCount--
	c.deadLive++
	c.zoneLive[n.zone]--
	if n.spot {
		c.spotLive--
	}
	c.touchNode(n)
}

// compactLive drops dead entries from the live list (creation order is
// preserved). Called only outside liveList iterations.
func (c *Cluster) compactLive() {
	if c.deadLive == 0 {
		return
	}
	kept := c.liveList[:0]
	for _, n := range c.liveList {
		if n.live {
			kept = append(kept, n)
		}
	}
	c.liveList = kept
	c.deadLive = 0
}

// tick is the periodic control loop: node kills (plus spot revocations
// and zone drills in cloud-model runs), displaced-pod rescheduling,
// idle reclaim, Hostlo re-optimisation, re-arm.
func (c *Cluster) tick() {
	now := c.eng.Now()
	if c.deadLive > len(c.liveList)/2 {
		c.compactLive()
	}
	// 1. Node kills — consult the injector once per live node, in
	// creation order, at point "node/<name>".
	if c.inj != nil {
		for _, n := range c.liveList {
			if n.live && c.inj.Crash(n.faultPoint) {
				c.killNode(n, now)
			}
		}
		// 1b. Spot revocations, point "spot/<name>" per live spot node.
		// Gated on a non-empty spot fleet so an on-demand world never
		// consults the injector here: a bare "*" rule would otherwise
		// draw from the fault RNG and shift the stream every recorded
		// on-demand digest depends on.
		if c.spotLive > 0 {
			for _, n := range c.liveList {
				if n.live && n.spot && c.inj.Crash(n.spotPoint) {
					c.revokeNode(n, now)
				}
			}
		}
		// 1c. Whole-zone kill drills, point "zone/<name>" per configured
		// zone — same single-zone gate as above.
		if c.cfg.Zones > 1 {
			for z := 0; z < c.cfg.Zones; z++ {
				if c.inj.Crash(c.zonePoints[z]) {
					c.killZone(z, now)
				}
			}
		}
	}
	// 2. Displaced pods (and any queue backlog) go back through the
	// scheduler.
	if c.queueLen() > 0 {
		c.kickSchedule()
	}
	// 3. Idle reclaim with hysteresis: one resync round of
	// observed-vs-desired capacity.
	reclaimed := c.reclaimIdle(now)
	c.res.ReconcileRounds++
	c.count("cluster/reconcile_rounds")
	if reclaimed > 0 {
		c.res.ReconcileActions += reclaimed
		c.countN("cluster/reconcile_actions", reclaimed)
	}
	// 4. Hostlo: re-pack what churn fragmented, but never under a
	// backlog — the pending queue would immediately re-dirty the fleet.
	if c.cfg.Policy == Hostlo && c.dirty && c.queueLen() == 0 {
		c.optimize()
	}
	next := now + scaleEvery
	if next <= sim.Time(c.cfg.Horizon) {
		c.schedEvent(next, evTick, 0, 0)
	}
}

// reclaimIdle terminates every live node that has sat empty past the
// idleGrace hysteresis, in creation order, and reports how many.
func (c *Cluster) reclaimIdle(now sim.Time) int {
	reclaimed := 0
	for _, n := range c.liveList {
		if n.live && len(n.items) == 0 && now-n.idleSince >= idleGrace {
			c.terminate(n, now)
			c.res.ScaleDowns++
			c.count("cluster/scale_downs")
			if c.rec != nil {
				c.rec.Instant("cluster/autoscaler", "reclaim-idle", "node", float64(n.id))
			}
			reclaimed++
		}
	}
	return reclaimed
}

// killNode fails a node mid-run: the bill is settled, every pod with a
// container on it is displaced back into the pending queue with its
// remaining lifetime, and split pods lose their placements on other
// nodes too (a pod runs whole or not at all).
func (c *Cluster) killNode(n *node, now sim.Time) {
	c.res.Kills++
	c.count("cluster/node_kills")
	if c.rec != nil {
		c.rec.Instant("cluster/faults", "node-kill", "node", float64(n.id))
	}
	c.drainNode(n, now)
}

// drainNode is the shared teardown of killNode and revokeNode: every
// pod with a container on the node is displaced back into the pending
// queue, the node's bill is settled and it leaves the fleet.
func (c *Cluster) drainNode(n *node, now sim.Time) {
	// Victim pods in item order, deduplicated.
	seen := map[string]bool{}
	var victims []int
	for _, it := range n.items {
		if seen[it.Pod] {
			continue
		}
		seen[it.Pod] = true
		if i, ok := c.podIndex[it.Pod]; ok {
			victims = append(victims, i)
		}
	}
	n.items = n.items[:0]
	n.recompute()
	c.terminate(n, now)
	c.dirty = true
	for _, i := range victims {
		c.displace(i, now)
	}
}

// displace returns a running pod to the pending queue after its node
// died: remaining lifetime is reduced by the time already served, the
// departure generation bumps so the stale departure event is inert, and
// the pod re-enters the queue flagged for the Reschedules counter.
func (c *Cluster) displace(i int, now sim.Time) {
	p := &c.pods[i]
	if p.state != stateRunning {
		return
	}
	c.removePlacement(i) // strips survivors of a split pod from other nodes
	if p.remaining > 0 {
		served := now - p.placedAt
		p.remaining -= served
		if p.remaining <= 0 {
			p.remaining = 1 // ns: died at the wire — reschedule, then depart
		}
	}
	p.departGen++
	p.state = statePending
	p.waitSince = now
	p.displaced = true
	c.res.Displaced++
	c.count("cluster/displacements")
	c.enqueue(i)
}
