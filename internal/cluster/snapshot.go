package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"nestless/internal/cloudsim"
	"nestless/internal/faults"
	"nestless/internal/sim"
	"nestless/internal/telemetry"
	"nestless/internal/trace"
)

// World snapshot/fork: deterministic capture and restore of a running
// cluster, the substrate of the what-if service (internal/snapshot,
// cmd/whatif). The contract is byte-identity: Restore(Capture(w)) and
// the uninterrupted w produce identical digests, Results and telemetry
// for any continuation, because every piece of mutable state round-trips
// exactly —
//
//   - the engine core (clock, event sequence counter, step count) and
//     the RNG streams as (seed, draws) positions (sim.RandState);
//   - the pending event set through the typed ledger (events.go),
//     replayed in ascending original-sequence order so same-instant
//     FIFO ties resolve identically;
//   - pod runtime state verbatim; node used sums by canonical recompute
//     (every mutation path maintains "sum in item order", so the
//     recompute is bit-exact);
//   - the pending queue's raw heap array (pop order is total, but the
//     layout is kept anyway), the blocked-head memo, and the capacity-
//     index version counter (tree shapes are history-independent given
//     the (score, id) keys and the id-hash priorities, so the index
//     itself rebuilds from the live fleet);
//   - the fault injector's RNG position and rule cursors, the packing
//     cache's entries in recency order, and the accumulated Result and
//     time-to-schedule series with their exact float sums.
//
// Capture deep-copies everything the parent may mutate, so a snapshot
// stays frozen while the parent advances; heavyweight immutables — pod
// definitions (trace.Pod containers), the catalog, the fault schedule,
// packing-cache entry slices — are shared copy-on-write. Restore
// deep-copies the mutables again, so any number of concurrent branches
// can be restored from one snapshot on different goroutines.

// PodSnap is one pod's captured runtime state. Pod (the workload
// definition) is shared with the live world: trace.Pod contents are
// immutable after generation.
type PodSnap struct {
	Pod           trace.Pod
	User          string
	State         int8
	ArrivedAt     sim.Time
	WaitSince     sim.Time
	PlacedAt      sim.Time
	Remaining     time.Duration
	DepartGen     int
	ScheduledOnce bool
	Displaced     bool
	OnNodes       []int32
}

// NodeSnap is one VM's captured state. Used sums, the index key, the
// name and the fault point are all canonical functions of (id, typ,
// items) and are recomputed at restore. Dirty flags are carried by
// Snapshot.DirtyList, which also preserves their discovery order.
type NodeSnap struct {
	Typ       int32
	Zone      int32
	Spot      bool
	Live      bool
	BornAt    sim.Time
	IdleSince sim.Time
	Items     []cloudsim.PlacedItem
}

// QueueSnap is one pending-queue heap entry, array layout preserved.
type QueueSnap struct {
	Key float64
	Seq uint64
	Idx int32
}

// Snapshot is a frozen world: pure data, no closures, no engine. It can
// be restored any number of times (concurrently) and serialized by
// internal/snapshot's codec.
type Snapshot struct {
	// Cfg is the normalized run configuration with the workload and
	// recorder stripped: pods live in Pods (with runtime state), the
	// recorder is supplied at restore. Cfg.Faults is shared (immutable);
	// FaultsSpec is its spec-string form for the codec.
	Cfg        Config
	FaultsSpec string

	Eng sim.EngineState

	Pods []PodSnap

	Nodes     []NodeSnap
	LiveList  []int32 // liveList as node ids, order preserved (incl. dead entries)
	DeadLive  int
	DirtyList []int32 // Hostlo dirty set, append order preserved

	PQ     []QueueSnap // pending heap, raw array
	EnqSeq uint64

	BlockedPod int
	BlockedVer uint64
	IdxVer     uint64
	Inflight   int
	OdFallback int
	Dirty      bool
	Started    bool
	Finalized  bool

	Events []EventSnap // pending typed events, ascending Seq

	Res Result
	TTS sim.SeriesState

	Inj  *faults.InjectorState
	Pack *cloudsim.PackCacheState
}

// EventSnap is one pending typed event, the serializable ledger entry.
type EventSnap struct {
	At   sim.Time
	Seq  uint64
	Kind uint8
	A, B int64
}

// Capture freezes the world at the current parked instant. Call it only
// between Advance calls (never from inside an event callback); a
// pending coalesced schedule pass — possible after a same-instant
// mutator like InjectTransfer or KillNodesNow — is rejected: advance
// the engine to its own Now first so the pass drains.
func (c *Cluster) Capture() (*Snapshot, error) {
	if c.schedPend {
		return nil, fmt.Errorf("cluster: capture with a schedule pass pending (Advance(Now) first)")
	}
	if got, want := c.eng.Pending(), len(c.ledger); got != want {
		return nil, fmt.Errorf("cluster: %d pending engine events but %d ledgered (unledgered closure in flight?)", got, want)
	}

	s := &Snapshot{
		Cfg:        c.cfg,
		Eng:        c.eng.State(),
		DeadLive:   c.deadLive,
		EnqSeq:     c.enqSeq,
		BlockedPod: c.blockedPod,
		BlockedVer: c.blockedVer,
		Inflight:   c.inflight,
		OdFallback: c.odFallback,
		Dirty:      c.dirty,
		Started:    c.started,
		Finalized:  c.finalized,
		Res:        c.res,
		TTS:        c.tts.State(),
		Inj:        c.inj.State(),
		Pack:       c.pack.State(),
	}
	s.Cfg.Pods = nil
	s.Cfg.Rec = nil
	if c.cfg.Faults != nil {
		s.FaultsSpec = c.cfg.Faults.String()
	}
	s.IdxVer = c.idx.ver
	// Deep copies of everything the parent keeps mutating.
	s.Res.Samples = append([]Sample(nil), c.res.Samples...)
	s.Res.FleetTypes = append([]int(nil), c.res.FleetTypes...)
	s.Pods = make([]PodSnap, len(c.pods))
	for i := range c.pods {
		p := &c.pods[i]
		ps := PodSnap{
			Pod:           p.pod,
			User:          p.user,
			State:         int8(p.state),
			ArrivedAt:     p.arrivedAt,
			WaitSince:     p.waitSince,
			PlacedAt:      p.placedAt,
			Remaining:     p.remaining,
			DepartGen:     p.departGen,
			ScheduledOnce: p.scheduledOnce,
			Displaced:     p.displaced,
		}
		if len(p.onNodes) > 0 {
			ps.OnNodes = make([]int32, len(p.onNodes))
			for k, nid := range p.onNodes {
				ps.OnNodes[k] = int32(nid)
			}
		}
		s.Pods[i] = ps
	}
	s.Nodes = make([]NodeSnap, len(c.nodes))
	for i, n := range c.nodes {
		s.Nodes[i] = NodeSnap{
			Typ:       int32(n.typ),
			Zone:      int32(n.zone),
			Spot:      n.spot,
			Live:      n.live,
			BornAt:    n.bornAt,
			IdleSince: n.idleSince,
			Items:     append([]cloudsim.PlacedItem(nil), n.items...),
		}
	}
	s.LiveList = make([]int32, len(c.liveList))
	for i, n := range c.liveList {
		s.LiveList[i] = int32(n.id)
	}
	s.DirtyList = make([]int32, len(c.dirtyList))
	for i, n := range c.dirtyList {
		s.DirtyList[i] = int32(n.id)
	}
	s.PQ = make([]QueueSnap, len(c.pq))
	for i, e := range c.pq {
		s.PQ[i] = QueueSnap{Key: e.key, Seq: e.seq, Idx: int32(e.idx)}
	}
	s.Events = make([]EventSnap, 0, len(c.ledger))
	for _, ev := range c.ledger {
		s.Events = append(s.Events, EventSnap{At: ev.At, Seq: ev.Seq, Kind: uint8(ev.Kind), A: ev.A, B: ev.B})
	}
	sort.Slice(s.Events, func(a, b int) bool { return s.Events[a].Seq < s.Events[b].Seq })
	return s, nil
}

// RestoreOpts parameterises a branch restored from a snapshot. The zero
// value continues the captured world unchanged.
type RestoreOpts struct {
	// Rec attaches a telemetry recorder to the branch. Byte-identical
	// telemetry continuation requires the recorder the captured world
	// was using (a second BindEngine keeps its cursors); nil runs the
	// branch silent.
	Rec *telemetry.Recorder
	// Policy, when non-nil, switches the placement policy for the
	// branch ("what if we switch to Hostlo"). Switching to Hostlo marks
	// the whole live fleet dirty so the first optimize pass may repack
	// everything churn left behind.
	Policy *Policy
	// Faults, when non-nil, replaces the branch's fault schedule ("what
	// if this zone starts dying"). The new injector forks the engine
	// RNG stream at restore, exactly as New does at construction.
	Faults *faults.Schedule
}

// Restore builds a live world from a snapshot. The snapshot is only
// read — never mutated — so concurrent Restores from one snapshot are
// safe; each branch deep-copies the mutable state and shares the
// immutables (pod definitions, catalog, fault schedule, packing-cache
// entry slices). Corrupt snapshots (a hostile decode) return an error,
// never panic.
func Restore(s *Snapshot, o RestoreOpts) (*Cluster, error) {
	cfg := s.Cfg
	cfg.Pods = nil
	cfg.Rec = o.Rec
	// A genuine capture carries at least Zones zone names and spot
	// discounts, because New applied the defaults. Check before
	// withDefaults, which would otherwise pad both lists out to any
	// hostile Zones, spending time and memory on each.
	if cfg.Zones > len(cfg.ZoneNames) || cfg.Zones > len(cfg.SpotDiscount) {
		return nil, fmt.Errorf("cluster: snapshot declares %d zones but carries %d names and %d spot discounts",
			cfg.Zones, len(cfg.ZoneNames), len(cfg.SpotDiscount))
	}
	cfg = cfg.withDefaults()
	switched := false
	if o.Policy != nil && *o.Policy != cfg.Policy {
		cfg.Policy = *o.Policy
		switched = true
	}
	if o.Faults != nil {
		cfg.Faults = o.Faults
	}
	nPods, nNodes, nTypes := len(s.Pods), len(s.Nodes), len(cfg.Catalog)

	// Structural validation up front: everything indexed later must be
	// in range, so a hostile snapshot fails cleanly here.
	if nNodes > 0 && nTypes == 0 {
		return nil, fmt.Errorf("cluster: snapshot has %d nodes but an empty catalog", nNodes)
	}
	for i := range s.Nodes {
		if t := int(s.Nodes[i].Typ); t < 0 || t >= nTypes {
			return nil, fmt.Errorf("cluster: node %d type %d out of catalog range %d", i, t, nTypes)
		}
		if z := int(s.Nodes[i].Zone); z < 0 || z >= cfg.Zones {
			return nil, fmt.Errorf("cluster: node %d zone %d out of range %d", i, z, cfg.Zones)
		}
	}
	if s.OdFallback < 0 {
		return nil, fmt.Errorf("cluster: negative on-demand fallback credit %d", s.OdFallback)
	}
	for i := range s.Pods {
		ps := &s.Pods[i]
		if ps.State < int8(statePending) || ps.State > int8(stateTransferred) {
			return nil, fmt.Errorf("cluster: pod %d state %d out of range", i, ps.State)
		}
		for _, nid := range ps.OnNodes {
			if nid < 0 || int(nid) >= nNodes {
				return nil, fmt.Errorf("cluster: pod %d placement map names node %d of %d", i, nid, nNodes)
			}
		}
	}
	liveSeen := make([]bool, nNodes)
	for _, nid := range s.LiveList {
		if nid < 0 || int(nid) >= nNodes {
			return nil, fmt.Errorf("cluster: live list names node %d of %d", nid, nNodes)
		}
		if liveSeen[nid] {
			return nil, fmt.Errorf("cluster: live list names node %d twice", nid)
		}
		liveSeen[nid] = true
	}
	liveCount, deadInList := 0, 0
	for i := range s.Nodes {
		if s.Nodes[i].Live {
			liveCount++
			if !liveSeen[i] {
				return nil, fmt.Errorf("cluster: live node %d missing from the live list", i)
			}
		}
	}
	for _, nid := range s.LiveList {
		if !s.Nodes[nid].Live {
			deadInList++
		}
	}
	if deadInList != s.DeadLive {
		return nil, fmt.Errorf("cluster: %d dead live-list entries, DeadLive says %d", deadInList, s.DeadLive)
	}
	for _, nid := range s.DirtyList {
		if nid < 0 || int(nid) >= nNodes {
			return nil, fmt.Errorf("cluster: dirty list names node %d of %d", nid, nNodes)
		}
	}
	if s.BlockedPod < -1 || s.BlockedPod >= nPods {
		return nil, fmt.Errorf("cluster: blocked pod %d out of range %d", s.BlockedPod, nPods)
	}
	for _, e := range s.PQ {
		if e.Idx < 0 || int(e.Idx) >= nPods {
			return nil, fmt.Errorf("cluster: heap entry names pod %d of %d", e.Idx, nPods)
		}
	}
	provPending := 0
	for _, ev := range s.Events {
		if ev.Kind == 0 || evKind(ev.Kind) >= evKindMax {
			return nil, fmt.Errorf("cluster: unknown pending event kind %d", ev.Kind)
		}
		if ev.At < s.Eng.Now {
			return nil, fmt.Errorf("cluster: pending event at %v before the captured clock %v", ev.At, s.Eng.Now)
		}
		switch evKind(ev.Kind) {
		case evArrive, evDepart, evEnd, evAdopt:
			if ev.A < 0 || ev.A >= int64(nPods) {
				return nil, fmt.Errorf("cluster: pending %d event names pod %d of %d", ev.Kind, ev.A, nPods)
			}
		case evProvRetry, evNodeReady:
			if ev.A < 0 || ev.A >= int64(nTypes) {
				return nil, fmt.Errorf("cluster: pending %d event names type %d of %d", ev.Kind, ev.A, nTypes)
			}
			if ev.B < 0 || ev.B>>1 >= int64(cfg.Zones) {
				return nil, fmt.Errorf("cluster: pending %d event names zone %d of %d", ev.Kind, ev.B>>1, cfg.Zones)
			}
			provPending++
		}
	}
	if provPending != s.Inflight {
		return nil, fmt.Errorf("cluster: %d provisioning events pending, Inflight says %d", provPending, s.Inflight)
	}
	if s.Pack != nil {
		for ei := range s.Pack.Entries {
			e := &s.Pack.Entries[ei]
			for _, vms := range [2][]cloudsim.PlacedVM{e.Input, e.Output} {
				for _, vm := range vms {
					if vm.Type < 0 || vm.Type >= nTypes {
						return nil, fmt.Errorf("cluster: pack cache entry %d names type %d of %d", ei, vm.Type, nTypes)
					}
				}
			}
		}
	}

	eng := sim.RestoreEngine(s.Eng)
	var inj *faults.Injector
	if o.Faults != nil {
		// A replaced schedule is a fresh fault world: fork the engine
		// stream exactly as New does at construction.
		inj = faults.New(eng, o.Faults, o.Rec)
	} else {
		var err error
		inj, err = faults.Restore(cfg.Faults, o.Rec, s.Inj)
		if err != nil {
			return nil, err
		}
	}
	pack, err := cloudsim.RestorePackCache(s.Pack)
	if err != nil {
		return nil, err
	}

	c := &Cluster{
		cfg: cfg,
		eng: eng,
		inj: inj,
		rec: o.Rec,
		cat: cfg.Catalog,
		idx: newCapIndex(cfg.Catalog),

		enqSeq:     s.EnqSeq,
		blockedPod: s.BlockedPod,
		blockedVer: s.BlockedVer,
		inflight:   s.Inflight,
		odFallback: s.OdFallback,
		dirty:      s.Dirty,
		started:    s.Started,
		finalized:  s.Finalized,
		deadLive:   s.DeadLive,
		pack:       pack,
		ledger:     make(map[uint64]ledgerEvent, len(s.Events)),
	}
	c.fireFn = c.fireBySeq
	c.res = s.Res
	c.res.Policy = cfg.Policy
	c.res.Samples = append([]Sample(nil), s.Res.Samples...)
	c.res.FleetTypes = append([]int(nil), s.Res.FleetTypes...)
	c.tts.SetState(s.TTS)

	// Pods: runtime state verbatim, derived sums recomputed (canonical
	// container-order accumulation, identical to New's). Placement maps
	// share one arena, each capped at its own length so an append
	// reallocates instead of running into the next pod's.
	c.pods = make([]podRun, nPods)
	c.podIndex = make(map[string]int, nPods)
	onTotal := 0
	for i := range s.Pods {
		onTotal += len(s.Pods[i].OnNodes)
	}
	onArena := make([]int, 0, onTotal)
	for i := range s.Pods {
		ps := &s.Pods[i]
		p := podRun{
			pod:           ps.Pod,
			user:          ps.User,
			cpu:           ps.Pod.TotalCPU(),
			mem:           ps.Pod.TotalMem(),
			state:         podState(ps.State),
			arrivedAt:     ps.ArrivedAt,
			waitSince:     ps.WaitSince,
			placedAt:      ps.PlacedAt,
			remaining:     ps.Remaining,
			departGen:     ps.DepartGen,
			scheduledOnce: ps.ScheduledOnce,
			displaced:     ps.Displaced,
		}
		if len(ps.OnNodes) > 0 {
			start := len(onArena)
			for _, nid := range ps.OnNodes {
				onArena = append(onArena, int(nid))
			}
			p.onNodes = onArena[start:len(onArena):len(onArena)]
		}
		c.pods[i] = p
		if _, dup := c.podIndex[ps.Pod.ID]; !dup {
			c.podIndex[ps.Pod.ID] = i
		}
	}

	// Nodes: identity and items verbatim, used sums by canonical
	// recompute, index keys from the recomputed sums (tree shape is
	// history-independent, so insertion in id order reproduces the
	// query structure; the version counter restores explicitly). All
	// nodes come from one arena and their item lists from another (each
	// list capped like the placement maps above). Only live nodes get a
	// name and a fault point: kill targets and the tick loop address
	// live nodes alone, and a node goes live only in createNode, which
	// builds its own.
	c.initZones()
	c.nodes = make([]*node, nNodes)
	arena := make([]node, nNodes)
	itemTotal := 0
	for i := range s.Nodes {
		itemTotal += len(s.Nodes[i].Items)
	}
	itemArena := make([]cloudsim.PlacedItem, 0, itemTotal)
	for i := range s.Nodes {
		ns := &s.Nodes[i]
		n := &arena[i]
		*n = node{
			id:        i,
			typ:       int(ns.Typ),
			zone:      int(ns.Zone),
			spot:      ns.Spot,
			bornAt:    ns.BornAt,
			idleSince: ns.IdleSince,
			live:      ns.Live,
		}
		if len(ns.Items) > 0 {
			start := len(itemArena)
			itemArena = append(itemArena, ns.Items...)
			n.items = itemArena[start:len(itemArena):len(itemArena)]
		}
		if n.live {
			n.name = "n" + strconv.Itoa(i)
			n.faultPoint = "node/" + n.name
		}
		if n.spot {
			n.spotPoint = "spot/n" + strconv.Itoa(i)
		}
		n.priceH = c.price(n.typ, n.zone, n.spot)
		n.recompute()
		c.nodes[i] = n
		if n.live {
			c.zoneLive[n.zone]++
			if n.spot {
				c.spotLive++
			}
			c.touchNode(n)
		}
	}
	c.liveCount = liveCount
	c.idx.ver = s.IdxVer
	c.liveList = make([]*node, len(s.LiveList))
	for i, nid := range s.LiveList {
		c.liveList[i] = c.nodes[nid]
	}
	c.dirtyList = make([]*node, 0, len(s.DirtyList))
	if cfg.Policy == Hostlo {
		for _, nid := range s.DirtyList {
			n := c.nodes[nid]
			n.dirty = true
			c.dirtyList = append(c.dirtyList, n)
		}
	}

	// Pending queue.
	c.pq = make(podQueue, len(s.PQ))
	for i, e := range s.PQ {
		c.pq[i] = podEntry{key: e.Key, seq: e.Seq, idx: int(e.Idx)}
	}

	// Replay the pending event set in ascending original-seq order:
	// relative order — the only observable part of a sequence number —
	// is preserved under the fresh seqs At assigns.
	evs := append([]EventSnap(nil), s.Events...)
	sort.Slice(evs, func(a, b int) bool { return evs[a].Seq < evs[b].Seq })
	for _, ev := range evs {
		c.schedEvent(ev.At, evKind(ev.Kind), ev.A, ev.B)
	}

	// Policy switch: give the first Hostlo optimize pass the whole live
	// fleet (churn under the old policy never marked anything).
	if switched && cfg.Policy == Hostlo {
		c.dirty = true
		for _, n := range c.liveList {
			if n.live && !n.dirty {
				n.dirty = true
				c.dirtyList = append(c.dirtyList, n)
			}
		}
	}

	o.Rec.BindEngine(eng)
	return c, nil
}

// Fork captures the world and restores an independent branch in one
// call: the copy-on-write what-if primitive. The parent is untouched
// and may keep advancing; for many branches off one instant, Capture
// once and Restore per branch instead (one shared frozen snapshot).
func (c *Cluster) Fork(o RestoreOpts) (*Cluster, error) {
	s, err := c.Capture()
	if err != nil {
		return nil, err
	}
	return Restore(s, o)
}

// AdoptPods materializes extra pods into a running world at the current
// instant — the "what if 10k more pods arrive" branch delta. Each pod
// arrives at max(Now, its Arrival stamp) and is booked under the
// Adopted counter (the conservation audit's third inflow, alongside
// Arrived and TransferredIn). Pod IDs must be new to this world.
func (c *Cluster) AdoptPods(pods []trace.Pod) error {
	now := c.eng.Now()
	if now > sim.Time(c.cfg.Horizon) {
		return fmt.Errorf("cluster: adopting pods at %v, past the horizon %v", now, c.cfg.Horizon)
	}
	for _, p := range pods {
		if _, dup := c.podIndex[p.ID]; dup {
			return fmt.Errorf("cluster: adopt duplicate pod %s", p.ID)
		}
		i := len(c.pods)
		c.pods = append(c.pods, podRun{
			pod:       p,
			cpu:       p.TotalCPU(),
			mem:       p.TotalMem(),
			remaining: p.Lifetime,
		})
		c.podIndex[p.ID] = i
		at := sim.Time(p.Arrival)
		if at < now {
			at = now
		}
		if at > sim.Time(c.cfg.Horizon) {
			c.res.BeyondHorizon++
			continue
		}
		c.schedEvent(at, evAdopt, int64(i), 0)
	}
	return nil
}

// arriveAdopted admits an adopted pod: identical to arrive except the
// inflow is booked as Adopted.
func (c *Cluster) arriveAdopted(i int) {
	p := &c.pods[i]
	p.arrivedAt = c.eng.Now()
	p.waitSince = p.arrivedAt
	c.res.Adopted++
	c.count("cluster/adopted")
	c.enqueue(i)
	c.kickSchedule()
}

// LiveNodeNames lists the live fleet's node names in creation order —
// the addressable targets for KillNodesNow.
func (c *Cluster) LiveNodeNames() []string {
	names := make([]string, 0, c.liveCount)
	for _, n := range c.liveList {
		if n.live {
			names = append(names, n.name)
		}
	}
	return names
}

// KillNodesNow fails the named live nodes at the current instant — the
// "what if this zone dies" branch delta, with exactly the semantics of
// a fault-injected node kill (bill settled, pods displaced back into
// the queue, Kills counted). All names are validated live before
// anything dies.
func (c *Cluster) KillNodesNow(names []string) error {
	want := make(map[string]bool, len(names))
	for _, name := range names {
		want[name] = true
	}
	found := 0
	for _, n := range c.liveList {
		if n.live && want[n.name] {
			found++
		}
	}
	if found != len(want) {
		for _, name := range names {
			ok := false
			for _, n := range c.liveList {
				if n.live && n.name == name {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("cluster: kill target %q is not a live node", name)
			}
		}
	}
	now := c.eng.Now()
	for _, n := range c.liveList {
		if n.live && want[n.name] {
			c.killNode(n, now)
		}
	}
	if c.queueLen() > 0 {
		c.kickSchedule()
	}
	return nil
}

// Now reports the engine's current virtual instant.
func (c *Cluster) Now() sim.Time { return c.eng.Now() }
