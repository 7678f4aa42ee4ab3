// Package cluster is the event-driven cluster lifecycle simulator: the
// dynamic counterpart of internal/cloudsim's static Fig. 9 pricing.
//
// The static simulation packs a frozen snapshot of each user's pods and
// prices it per hour. Real clusters of containers-on-VMs win or lose on
// dynamics: pods arrive and depart over time, fragmentation accumulates
// as they churn, nodes fail mid-run, and the VM fleet must grow and
// shrink from inside the workload loop. This package simulates exactly
// that, deterministically, on the internal/sim virtual clock:
//
//   - pods arrive (seeded Poisson gaps from internal/trace) and depart
//     (heavy-tailed lifetimes) over virtual time;
//   - a scheduler with a FIFO pending queue places them — whole-pod
//     most-requested for the Kubernetes baseline, plus the Hostlo
//     container-level optimizer (reusing internal/cloudsim's packing
//     code, so a no-churn run converges to the static packing exactly);
//   - an autoscaler provisions VMs on queue pressure (with boot delay
//     and fault-injectable failures) and reclaims idle VMs after a
//     hysteresis grace period;
//   - node-kill faults (internal/faults, point "node/<name>") drain a
//     VM mid-run and displace its pods back into the pending queue;
//   - an accountant integrates VM-hours × catalog price into a
//     cost-over-time trajectory and records time-to-schedule stats.
//
// Placement decisions are made through the indexed scheduling core
// (capindex.go): per-type capacity trees and a priority-heap pending
// queue give O(log n) decisions at trace scale; the golden corpus in
// testdata/golden.txt pins those decisions.
//
// Determinism is the same hard requirement as everywhere else in
// nestless: the same seed, workload, and fault schedule reproduce the
// identical Result byte for byte, and a population fan-out across
// workers merges in index order so tables never depend on scheduling.
package cluster

import (
	"fmt"
	"time"

	"nestless/internal/cloudsim"
	"nestless/internal/faults"
	"nestless/internal/sim"
	"nestless/internal/telemetry"
	"nestless/internal/trace"
)

// Policy selects the placement regime.
type Policy int

const (
	// Kubernetes is the baseline: whole-pod placement onto the
	// most-requested fitting node, no migration — fragmentation from
	// churn is never repaired, only empty nodes are reclaimed.
	Kubernetes Policy = iota
	// Hostlo adds the paper's container-level freedom: placement is
	// whole-pod first (the §5.3.1 pipeline), and the step-4 optimizer
	// (consolidate/split/shrink) periodically re-packs containers
	// across nodes, shrinking the fleet that churn fragmented. Pods too
	// wide for any single machine are split across nodes at placement.
	Hostlo
)

// String returns the policy name.
func (p Policy) String() string {
	if p == Hostlo {
		return "hostlo"
	}
	return "kubernetes"
}

// ParsePolicy is the inverse of Policy.String.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "kubernetes":
		return Kubernetes, nil
	case "hostlo":
		return Hostlo, nil
	}
	return 0, fmt.Errorf("unknown policy %q", name)
}

// AutoscalerMode names the fleet-management regime. Reconciler is the
// only one; the type stays so callers that spell it out keep compiling.
type AutoscalerMode int

// Reconciler is the declarative fleet manager: every scale decision is
// one idempotent reconcile of desired vs. observed machine sets —
// demand adds a machine in the emptiest zone (spot or on-demand per the
// configured fraction), the tick resyncs observed capacity against the
// idle-grace policy.
const Reconciler AutoscalerMode = 0

// Config parameterises one cluster lifecycle run.
type Config struct {
	// Seed drives the fault injector's RNG fork (the cluster logic
	// itself draws no randomness — arrivals and lifetimes come stamped
	// on the workload).
	Seed int64
	// Pods is the workload: one user's pods with Arrival/Lifetime
	// stamps from the trace generator (zero stamps = static workload).
	// Pod IDs must be unique within a workload.
	Pods []trace.Pod
	// Catalog is the VM menu (nil = cloudsim.Catalog(), Table 2).
	Catalog []cloudsim.VMType
	// Policy selects Kubernetes or Hostlo placement.
	Policy Policy
	// Horizon ends the simulation (default 8h).
	Horizon time.Duration
	// BootDelay is the VM provisioning latency. Zero boots instantly
	// (the steady-state equivalence tests use it); the commands pass
	// their -boot flag, 45s by default.
	BootDelay time.Duration
	// Faults arms the deterministic fault injector (nil = off). Points:
	// "node/provision" (fail/delay) and "node/<name>" (crash).
	Faults *faults.Schedule
	// Rec collects telemetry (nil = off).
	Rec *telemetry.Recorder

	// Cloud-model knobs (internal/cloud resolves CLI flags into these).
	//
	// Zones is the number of availability-zone failure domains the fleet
	// spreads across (default 1 — the pre-cloud world). The reconciler
	// places each new machine in the emptiest zone; each zone is a fault
	// point "zone/<name>" whose crash kills every node in it.
	Zones int
	// ZoneNames labels the zones (default "z0".."zN-1"). Length must be
	// ≥ Zones; only the first Zones entries are used.
	ZoneNames []string
	// SpotFrac is the target fraction of the live fleet on spot
	// (preemptible) capacity, in [0,1]. Spot nodes cost
	// PricePerH × SpotDiscount[zone] and each is a fault point
	// "spot/<name>" whose crash is a revocation: the node drains like a
	// kill and the next replacement machine falls back to on-demand.
	SpotFrac float64
	// SpotDiscount is the per-zone spot price fraction (extended to
	// Zones entries with 0.35 by withDefaults, so pricing is total even
	// for hostile snapshots).
	SpotDiscount []float64
	// Autoscaler names the fleet manager. Reconciler is the only value
	// and no behaviour is keyed on the field; it stays so configs that
	// spell it out (the perfbench replay workload) keep compiling.
	Autoscaler AutoscalerMode
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.Catalog == nil {
		c.Catalog = cloudsim.Catalog()
	}
	if c.Horizon <= 0 {
		c.Horizon = 8 * time.Hour
	}
	if c.Zones < 1 {
		c.Zones = 1
	}
	for len(c.ZoneNames) < c.Zones {
		c.ZoneNames = append(c.ZoneNames, fmt.Sprintf("z%d", len(c.ZoneNames)))
	}
	// defaultSpotDiscount keeps price() total on every zone index a
	// (possibly hostile) snapshot can name, whether or not the run uses
	// spot capacity.
	const defaultSpotDiscount = 0.35
	for len(c.SpotDiscount) < c.Zones {
		c.SpotDiscount = append(c.SpotDiscount, defaultSpotDiscount)
	}
	return c
}

// Sample is one point of the cost-over-time trajectory. A run samples
// at k·Horizon/12 for k = 1..12 (see sampleEvery), plus a horizon point
// when that chain misses the horizon, so a trajectory holds 12 or 13
// points whatever the horizon.
type Sample struct {
	T        sim.Time
	CostPerH float64 // fleet cost rate at T
	Pending  int     // pending-queue depth at T
	Nodes    int     // live fleet size at T
	UsedCPU  float64 // placed CPU across the fleet (relative units)
	CapCPU   float64 // fleet CPU capacity (relative units)
}

// Util returns the fleet CPU utilization at the sample (0 with no fleet).
func (s Sample) Util() float64 {
	if s.CapCPU <= 0 {
		return 0
	}
	return s.UsedCPU / s.CapCPU
}

// Result is the outcome of one lifecycle run. All fields are plain
// values, so byte-identical replay is checkable with reflect.DeepEqual.
type Result struct {
	Policy Policy

	// Pod accounting. Conservation invariant (checked by Leaks):
	// Arrived + TransferredIn + Adopted ==
	//   Departed + Running + StillPending + Failed + TransferredOut.
	Arrived       int // pods whose arrival fell within the horizon
	BeyondHorizon int // pods whose arrival fell past the horizon (not simulated)
	Scheduled     int // pods placed at least once
	Departed      int // pods that ran out their lifetime
	Running       int // pods still placed at the horizon
	StillPending  int // pods still queued at the horizon
	Failed        int // pods that can never be placed under the policy

	// Disruption accounting.
	Displaced   int // pod displacement events (node kills)
	Reschedules int // successful re-placements of displaced pods
	Kills       int // nodes killed by fault injection

	// Cross-world transfer accounting (shard replay only; both zero in
	// a standalone run). A transferred-out pod leaves this world's
	// books entirely — it is the receiving world's to depart or fail.
	TransferredIn  int
	TransferredOut int
	// Adopted counts pods materialized into this world after it started
	// — AdoptPods on a restored/forked what-if branch. Like the transfer
	// counters it extends the conservation left-hand side: an adopted
	// pod entered the world without an Arrived tally.
	Adopted int

	// Fleet accounting.
	ScaleUps         int // nodes provisioned by the autoscaler
	ScaleDowns       int // idle nodes reclaimed past the grace period
	ProvisionRetries int // failed provisioning attempts (faults)
	OptimizerRuns    int // Hostlo re-pack passes executed
	OptimizerFull    int // of those, full-fleet passes (the rest were dirty-set incremental)
	OptimizerMoves   int // nodes retired + created by those passes
	// Incremental-pass partition and packing-cache accounting.
	// OptimizerGroups counts per-type candidate groups optimized (each
	// one an independent unit of parallel work); hits and misses count
	// packing-cache outcomes (both zero with the cache disabled —
	// everything else in Result is identical either way).
	OptimizerGroups      int
	OptimizerCacheHits   int
	OptimizerCacheMisses int
	PeakNodes            int
	FinalNodes           int
	// FleetTypes lists the live nodes' catalog type indices at the
	// horizon, in node creation order — the exact fleet composition, for
	// equivalence checks against the static packer.
	FleetTypes []int

	// Cloud-model accounting (all zero in a single-zone on-demand run,
	// except the Reconcile* counters, which tally the declarative
	// autoscaler's work).
	ReconcileRounds   int // reconcile evaluations (demand + tick resync)
	ReconcileActions  int // machines added/reclaimed by those rounds
	SpotProvisions    int // nodes provisioned as spot capacity
	SpotRevocations   int // spot nodes revoked by the fault injector
	OnDemandFallbacks int // replacements forced on-demand by a revocation
	ZoneKills         int // whole-zone kill drills that fired
	// ZoneSpread is the live fleet's per-zone node count at the horizon
	// (nil in single-zone runs, so pre-cloud Results are unchanged).
	ZoneSpread []int

	// Cost accounting.
	CostDollars   float64 // integral of fleet price over the horizon
	FinalCostPerH float64 // fleet cost rate at the horizon
	// The spot/on-demand split of CostDollars. Each node's bill lands in
	// exactly one bucket, so the two sum to CostDollars up to float
	// association (they are separate accumulators, not a partition of
	// one); an all-on-demand run books everything in the second and its
	// value equals CostDollars bitwise.
	CostSpotDollars     float64
	CostOnDemandDollars float64

	// Time-to-schedule (arrival → first placement) stats. TTSSum and
	// Scheduled allow exact population-level means.
	TTSSum  time.Duration
	TTSMean time.Duration
	TTSP95  time.Duration
	TTSMax  time.Duration

	Samples []Sample
}

// podState is a pod's lifecycle stage.
type podState int

const (
	statePending podState = iota
	stateRunning
	stateDeparted
	stateFailed
	// stateTransferred: handed to another shard world through a
	// transfer mailbox (internal/shard); this world is done with it.
	stateTransferred
)

// podRun is the per-pod mutable state.
type podRun struct {
	pod      trace.Pod
	user     string  // owning tenant (stream mode; carried through transfers)
	cpu, mem float64 // whole-pod totals
	state    podState

	arrivedAt sim.Time
	// waitSince is when the pod last (re-)entered the pending queue —
	// arrival, displacement or transfer-in. The shard runner's
	// migration eligibility uses it (arrivedAt would make a freshly
	// transferred pod instantly eligible again).
	waitSince     sim.Time
	placedAt      sim.Time      // last placement
	remaining     time.Duration // lifetime left (0 = forever)
	departGen     int           // invalidates stale departure events
	scheduledOnce bool
	displaced     bool // awaiting re-placement after a node kill
	// onNodes lists the ids of nodes currently holding this pod's
	// containers (insertion order, no duplicates) — the placement map
	// that lets departures strip a pod in O(nodes touched) instead of a
	// fleet scan.
	onNodes []int
}

// node is one live (or dead) VM instance.
type node struct {
	id int
	// name is "n<id>", set when the node goes live: a node restored
	// dead has none, so the audit names nodes by id.
	name      string
	typ       int
	usedCPU   float64
	usedMem   float64
	items     []cloudsim.PlacedItem
	bornAt    sim.Time
	idleSince sim.Time
	live      bool

	faultPoint string  // "node/<name>", precomputed for the tick loop (live nodes only)
	indexed    bool    // currently present in the capacity index
	idxScore   float64 // the stored index key (exact delete needs it)
	dirty      bool    // touched since the last Hostlo optimize pass

	// Cloud-model identity, fixed at creation.
	zone      int     // failure-domain index, < Config.Zones
	spot      bool    // preemptible capacity
	spotPoint string  // "spot/n<id>" when spot, else ""
	priceH    float64 // effective $/h (on-demand price × spot discount)
}

// recompute rebuilds the used sums from the item list in order —
// removal paths use it so float accumulation never drifts from the
// canonical "sum in item order" value.
func (n *node) recompute() {
	n.usedCPU, n.usedMem = 0, 0
	for _, it := range n.items {
		n.usedCPU += it.CPU
		n.usedMem += it.Mem
	}
}

// Cluster is one lifecycle simulation world.
type Cluster struct {
	cfg Config
	eng *sim.Engine
	inj *faults.Injector
	rec *telemetry.Recorder
	cat []cloudsim.VMType

	pods     []podRun
	podIndex map[string]int // pod ID → index (first occurrence)

	// Pending queue: a heap ordered biggest-first, then by enqueue
	// sequence.
	pq     podQueue
	enqSeq uint64

	nodes     []*node
	liveList  []*node // live nodes in creation order (lazily compacted)
	deadLive  int     // dead entries still in liveList
	idx       *capIndex
	liveCount int
	inflight  int // provisioning requests not yet live

	// Cloud-model state.
	zoneLive   []int    // live nodes per zone (len Config.Zones)
	spotLive   int      // live spot nodes
	odFallback int      // pending on-demand fallback credits (revocations)
	zonePoints []string // "zone/<name>" per zone, precomputed

	// Blocked-head memo: the pod index that last returned blocked from
	// tryPlace and the capacity-index version it blocked at. While both
	// still match and a request is in flight, schedulePass skips the
	// provably identical retry (see the comment at the check).
	blockedPod int
	blockedVer uint64
	dirty      bool
	started    bool    // world armed (Start ran; idempotent)
	dirtyList  []*node // Hostlo: nodes touched since the last optimize
	schedPend  bool
	tts        sim.Series
	res        Result
	finalized  bool

	// transferIdxs is TransferOut's candidate scratch, reused across
	// barriers (not part of any state — always drained within the call).
	transferIdxs []int

	// fireFn is c.fireBySeq bound once at construction; schedEvent hands
	// it to the engine so typed events carry no per-event closure.
	fireFn func(uint64)

	// ledger mirrors every pending typed event in the engine by its
	// sequence number — the serializable face of the event heap (see
	// events.go). Entries are erased as events fire.
	ledger map[uint64]ledgerEvent

	// pack memoizes Hostlo sub-solutions across incremental optimize
	// passes (always on, cloudsim.PackCacheCap entries). Strictly
	// per-world: parallel population fan-outs and shard worlds never
	// share a cache.
	pack *cloudsim.PackCache

	// Optimizer scratch, reused arena-style across optimize() calls so
	// the steady-state repack path does not allocate. Each slice is
	// truncated (not freed) per pass; the mark arrays use a generation
	// stamp instead of clearing.
	candScratch     []*node
	neighScratch    []*node
	scoredScratch   []scoredNode
	typeCount       []int
	placedScratch   []cloudsim.PlacedVM
	itemScratch     []cloudsim.PlacedItem
	groupScratch    [][]cloudsim.PlacedVM
	outScratch      [][]cloudsim.PlacedVM
	missScratch     []int32
	improvedScratch []cloudsim.PlacedVM
	sigScratch      []cloudsim.VMSig
	avail           map[cloudsim.VMSig]sigChain
	availNext       []int32
	matchScratch    []int32
	eqScratch       []bool
	candMatched     []bool
	touchedScratch  []*node
	podMark         []uint32
	nodeMark        []uint32
	markGen         uint32
}

// scoredNode pairs a node with its precomputed most-requested score so
// neighborhood ordering sorts without recomputing the score per
// comparison.
type scoredNode struct {
	n     *node
	score float64
}

// sigChain is a FIFO of candidate indices sharing one VM signature,
// threaded through Cluster.availNext (arena-linked, no per-pass
// allocation).
type sigChain struct{ head, tail int32 }

// New builds a cluster world; call Run to simulate it.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	eng := sim.New(cfg.Seed)
	cfg.Rec.BindEngine(eng)
	c := &Cluster{
		cfg: cfg,
		eng: eng,
		inj: faults.New(eng, cfg.Faults, cfg.Rec),
		rec: cfg.Rec,
		cat: cfg.Catalog,
		idx: newCapIndex(cfg.Catalog),

		blockedPod: -1,
		pack:       cloudsim.NewPackCache(),
		ledger:     make(map[uint64]ledgerEvent),
	}
	c.fireFn = c.fireBySeq
	c.initZones()
	c.res.Policy = cfg.Policy
	c.pods = make([]podRun, len(cfg.Pods))
	c.podIndex = make(map[string]int, len(cfg.Pods))
	for i, p := range cfg.Pods {
		c.pods[i] = podRun{
			pod:       p,
			cpu:       p.TotalCPU(),
			mem:       p.TotalMem(),
			remaining: p.Lifetime,
		}
		if _, dup := c.podIndex[p.ID]; !dup {
			c.podIndex[p.ID] = i
		}
	}
	return c
}

// Simulate is the one-shot convenience: New + Run.
func Simulate(cfg Config) Result {
	return New(cfg).Run()
}

// Run executes the lifecycle to the horizon and returns the result:
// Start, then Advance(horizon) and Finish.
func (c *Cluster) Run() Result {
	c.Start()
	c.eng.RunUntil(sim.Time(c.cfg.Horizon))
	c.finalize()
	return c.res
}

// arrive admits one pod into the pending queue.
func (c *Cluster) arrive(i int) {
	p := &c.pods[i]
	p.arrivedAt = c.eng.Now()
	p.waitSince = p.arrivedAt
	c.res.Arrived++
	c.count("cluster/arrivals")
	c.enqueue(i)
	c.kickSchedule()
}

// enqueue appends a pod to the pending queue.
func (c *Cluster) enqueue(i int) {
	p := &c.pods[i]
	c.pq.push(podEntry{key: p.cpu + p.mem, seq: c.enqSeq, idx: i})
	c.enqSeq++
}

// queueLen is the pending-queue depth.
func (c *Cluster) queueLen() int { return len(c.pq) }

// kickSchedule coalesces schedule requests: at most one pass is queued
// per instant.
func (c *Cluster) kickSchedule() {
	if c.schedPend {
		return
	}
	c.schedPend = true
	c.eng.After(0, c.schedulePass)
}

// depart retires a pod whose lifetime ran out. gen guards against
// stale events (the pod was displaced and re-placed since).
func (c *Cluster) depart(i, gen int) {
	p := &c.pods[i]
	if p.state != stateRunning || p.departGen != gen {
		return
	}
	c.removePlacement(i)
	p.state = stateDeparted
	c.res.Departed++
	c.count("cluster/departures")
	c.dirty = true
	if c.queueLen() > 0 {
		c.kickSchedule()
	}
}

// stripPod removes pod id's items from node n, rebuilding the used sums
// canonically and starting the idle clock when the node empties.
// Reports whether anything was removed.
func (c *Cluster) stripPod(n *node, id string) bool {
	kept := n.items[:0]
	removed := false
	for _, it := range n.items {
		if it.Pod == id {
			removed = true
			continue
		}
		kept = append(kept, it)
	}
	if !removed {
		return false
	}
	n.items = kept
	n.recompute()
	c.touchNode(n)
	c.markDirty(n)
	if len(n.items) == 0 {
		n.idleSince = c.eng.Now()
	}
	return true
}

// removePlacement strips every container of pod i from the fleet,
// visiting only the nodes the placement map names.
func (c *Cluster) removePlacement(i int) {
	p := &c.pods[i]
	id := p.pod.ID
	for _, nid := range p.onNodes {
		n := c.nodes[nid]
		if !n.live || len(n.items) == 0 {
			continue
		}
		c.stripPod(n, id)
	}
	p.onNodes = p.onNodes[:0]
}

// fleetRates returns the live fleet's cost rate, used CPU and CPU
// capacity (iterating nodes in creation order).
func (c *Cluster) fleetRates() (costPerH, usedCPU, capCPU float64) {
	for _, n := range c.liveList {
		if !n.live {
			continue
		}
		costPerH += n.priceH
		usedCPU += n.usedCPU
		capCPU += c.cat[n.typ].RelCPU
	}
	return
}

// initZones sets up the per-zone live counts and fault points from the
// (defaulted) config. New and Restore both call it.
func (c *Cluster) initZones() {
	c.zoneLive = make([]int, c.cfg.Zones)
	c.zonePoints = make([]string, c.cfg.Zones)
	for z := 0; z < c.cfg.Zones; z++ {
		c.zonePoints[z] = "zone/" + c.cfg.ZoneNames[z]
	}
}

// price is a node's effective hourly rate: the catalog's on-demand
// price, discounted to the zone's spot rate for preemptible capacity.
// In a run that never uses spot this is the catalog price untouched —
// no float operation — which is what keeps default costs bitwise
// identical to the pre-cloud simulator.
func (c *Cluster) price(typ, zone int, spot bool) float64 {
	p := c.cat[typ].PricePerH
	if spot {
		p *= c.cfg.SpotDiscount[zone]
	}
	return p
}

// sampleEvery is the trajectory sampling period: twelve points per
// horizon. The 1ns floor keeps the chain advancing on a degenerate
// horizon below 12ns (only a hostile snapshot can carry one).
func (c *Cluster) sampleEvery() sim.Time {
	return max(sim.Time(c.cfg.Horizon/12), 1)
}

// sample records one trajectory point and re-arms the chain.
func (c *Cluster) sample() {
	cost, used, cap := c.fleetRates()
	s := Sample{
		T: c.eng.Now(), CostPerH: cost, Pending: c.queueLen(),
		Nodes: c.liveCount, UsedCPU: used, CapCPU: cap,
	}
	c.res.Samples = append(c.res.Samples, s)
	if c.rec != nil {
		c.rec.Metrics().Series("cluster/pending_depth").Add(float64(s.Pending))
		c.rec.Metrics().Series("cluster/fleet_util").Add(s.Util())
		c.rec.Metrics().Series("cluster/fleet_cost_per_h").Add(cost)
	}
	next := c.eng.Now() + c.sampleEvery()
	if next <= sim.Time(c.cfg.Horizon) {
		c.schedEvent(next, evSample, 0, 0)
	}
}

// finalize closes the books at the horizon.
func (c *Cluster) finalize() {
	if c.finalized {
		return
	}
	c.finalized = true
	horizon := sim.Time(c.cfg.Horizon)
	for _, n := range c.liveList {
		if n.live {
			c.accrue(n, horizon)
		}
	}
	cost, used, cap := c.fleetRates()
	c.res.FinalCostPerH = cost
	c.res.FinalNodes = c.liveCount
	for _, n := range c.liveList {
		if n.live {
			c.res.FleetTypes = append(c.res.FleetTypes, n.typ)
		}
	}
	c.res.StillPending = c.queueLen()
	if c.cfg.Zones > 1 {
		c.res.ZoneSpread = make([]int, c.cfg.Zones)
		for _, n := range c.liveList {
			if n.live {
				c.res.ZoneSpread[n.zone]++
			}
		}
	}
	for i := range c.pods {
		if c.pods[i].state == stateRunning {
			c.res.Running++
		}
	}
	if c.tts.N() > 0 {
		c.res.TTSSum = time.Duration(c.tts.Mean() * float64(c.tts.N()) * float64(time.Second))
		c.res.TTSMean = time.Duration(c.tts.Mean() * float64(time.Second))
		c.res.TTSP95 = time.Duration(c.tts.Percentile(95) * float64(time.Second))
		c.res.TTSMax = time.Duration(c.tts.Max() * float64(time.Second))
	}
	if n := len(c.res.Samples); n == 0 || c.res.Samples[n-1].T != horizon {
		c.res.Samples = append(c.res.Samples, Sample{
			T: horizon, CostPerH: cost, Pending: c.queueLen(),
			Nodes: c.liveCount, UsedCPU: used, CapCPU: cap,
		})
	}
	if c.rec != nil {
		// Counters, so appended runs add them exactly as Merge adds
		// the Result fields.
		reg := c.rec.Metrics()
		reg.Counter("cluster/final_cost_per_h").Add(c.res.FinalCostPerH)
		reg.Counter("cluster/cost_dollars").Add(c.res.CostDollars)
		reg.Counter("cluster/final_nodes").Add(float64(c.res.FinalNodes))
	}
}

// accrue charges a node's runtime [bornAt, until] to the cost integral,
// and to the spot or on-demand bucket of the split.
func (c *Cluster) accrue(n *node, until sim.Time) {
	bill := (until - n.bornAt).Hours() * n.priceH
	c.res.CostDollars += bill
	if n.spot {
		c.res.CostSpotDollars += bill
	} else {
		c.res.CostOnDemandDollars += bill
	}
}

// count bumps a telemetry counter when a recorder is attached.
func (c *Cluster) count(name string) {
	if c.rec != nil {
		c.rec.Metrics().Counter(name).Inc()
	}
}

// countN bumps a telemetry counter by n when a recorder is attached.
func (c *Cluster) countN(name string, n int) {
	if c.rec != nil {
		c.rec.Metrics().Counter(name).Add(float64(n))
	}
}

// score is the node's current most-requested score — the index sort key,
// computed by the same cloudsim call the linear scan uses per candidate.
func (c *Cluster) score(n *node) float64 {
	return cloudsim.MostRequestedFraction(c.cat[n.typ], n.usedCPU, n.usedMem)
}

// touchNode re-indexes a node after its used sums changed (and keeps a
// dead node out of the index).
func (c *Cluster) touchNode(n *node) {
	if n.indexed {
		c.idx.remove(n, n.idxScore)
		n.indexed = false
	}
	if n.live {
		n.idxScore = c.score(n)
		c.idx.add(n, n.idxScore)
		n.indexed = true
	}
}

// markDirty notes a node as touched since the last Hostlo optimize pass
// (the dirty set bounds the incremental re-pack).
func (c *Cluster) markDirty(n *node) {
	c.dirty = true
	if c.cfg.Policy != Hostlo {
		return
	}
	if !n.dirty {
		n.dirty = true
		c.dirtyList = append(c.dirtyList, n)
	}
}

// podNodeLink records that node nid now holds containers of pod i in
// the placement map (no-op for duplicates).
func (c *Cluster) podNodeLink(i, nid int) {
	p := &c.pods[i]
	for _, have := range p.onNodes {
		if have == nid {
			return
		}
	}
	p.onNodes = append(p.onNodes, nid)
}

// Leaks audits the post-run state and returns human-readable invariant
// violations (empty = clean). It is the cluster analog of
// vmm.Host.Leaks(): chaos runs call it after every schedule to prove
// that node kills displace pods without losing or duplicating them. It
// also reconciles the capacity index and the pod→node placement map
// against the authoritative per-node state.
func (c *Cluster) Leaks() []string {
	var leaks []string
	leakf := func(format string, args ...interface{}) {
		leaks = append(leaks, fmt.Sprintf(format, args...))
	}
	const eps = 1e-9
	// Per-node bookkeeping.
	live := 0
	placed := map[string]*struct {
		items    int
		cpu, mem float64
	}{}
	itemNodes := map[string]map[int]bool{} // pod ID → nodes holding its items
	for _, n := range c.nodes {
		if !n.live {
			if len(n.items) != 0 {
				leakf("dead node n%d still holds %d items", n.id, len(n.items))
			}
			if n.indexed {
				leakf("dead node n%d still in the capacity index", n.id)
			}
			continue
		}
		live++
		var cpu, mem float64
		for _, it := range n.items {
			cpu += it.CPU
			mem += it.Mem
			s := placed[it.Pod]
			if s == nil {
				s = &struct {
					items    int
					cpu, mem float64
				}{}
				placed[it.Pod] = s
			}
			s.items++
			s.cpu += it.CPU
			s.mem += it.Mem
			if itemNodes[it.Pod] == nil {
				itemNodes[it.Pod] = map[int]bool{}
			}
			itemNodes[it.Pod][n.id] = true
		}
		if diff := n.usedCPU - cpu; diff > eps || diff < -eps {
			leakf("node %s: usedCPU %v != item sum %v", n.name, n.usedCPU, cpu)
		}
		if diff := n.usedMem - mem; diff > eps || diff < -eps {
			leakf("node %s: usedMem %v != item sum %v", n.name, n.usedMem, mem)
		}
		if n.usedCPU > c.cat[n.typ].RelCPU+eps || n.usedMem > c.cat[n.typ].RelMem+eps {
			leakf("node %s (%s) overcommitted: %v/%v cpu, %v/%v mem",
				n.name, c.cat[n.typ].Name, n.usedCPU, c.cat[n.typ].RelCPU, n.usedMem, c.cat[n.typ].RelMem)
		}
		if !n.indexed {
			leakf("live node %s missing from the capacity index", n.name)
		} else if n.idxScore != c.score(n) {
			leakf("node %s: stale index key %v (current score %v)", n.name, n.idxScore, c.score(n))
		}
	}
	if live != c.liveCount {
		leakf("liveCount %d != %d live nodes", c.liveCount, live)
	}
	if c.idx.size != live {
		leakf("capacity index holds %d nodes, %d live", c.idx.size, live)
	}
	// Cloud-model reconciliation: the per-zone and spot tallies must
	// match a fresh count of the live fleet, and every node's identity
	// must be internally consistent.
	zoneLive := make([]int, c.cfg.Zones)
	spotLive := 0
	for _, n := range c.nodes {
		if n.zone < 0 || n.zone >= c.cfg.Zones {
			leakf("node n%d in zone %d of %d", n.id, n.zone, c.cfg.Zones)
			continue
		}
		if n.spot != (n.spotPoint != "") {
			leakf("node n%d: spot %v but spot point %q", n.id, n.spot, n.spotPoint)
		}
		if want := c.price(n.typ, n.zone, n.spot); n.priceH != want {
			leakf("node n%d: price %v/h, want %v/h", n.id, n.priceH, want)
		}
		if n.live {
			zoneLive[n.zone]++
			if n.spot {
				spotLive++
			}
		}
	}
	for z := range zoneLive {
		if zoneLive[z] != c.zoneLive[z] {
			leakf("zone %s: zoneLive %d != %d live nodes", c.cfg.ZoneNames[z], c.zoneLive[z], zoneLive[z])
		}
	}
	if spotLive != c.spotLive {
		leakf("spotLive %d != %d live spot nodes", c.spotLive, spotLive)
	}
	if c.odFallback < 0 {
		leakf("negative on-demand fallback credit %d", c.odFallback)
	}
	// Per-pod placement reconciliation. Every queue entry must name a
	// pending pod: departures, failures and transfers remove their
	// entries eagerly, so a stale entry is a leak.
	inQueue := map[int]int{}
	for _, e := range c.pq {
		i := e.idx
		inQueue[i]++
		if c.pods[i].state != statePending {
			leakf("queue entry for %v pod %s", c.pods[i].state, c.pods[i].pod.ID)
		}
	}
	for i := range c.pods {
		p := &c.pods[i]
		s := placed[p.pod.ID]
		switch p.state {
		case stateRunning:
			if s == nil {
				leakf("running pod %s has no placed containers", p.pod.ID)
				continue
			}
			if s.items != len(p.pod.Containers) {
				leakf("pod %s: %d containers placed, want %d", p.pod.ID, s.items, len(p.pod.Containers))
			}
			if diff := s.cpu - p.cpu; diff > eps || diff < -eps {
				leakf("pod %s: placed CPU %v != requested %v", p.pod.ID, s.cpu, p.cpu)
			}
			if inQueue[i] != 0 {
				leakf("running pod %s also pending", p.pod.ID)
			}
		default:
			if s != nil {
				leakf("%v pod %s still holds %d placed containers", p.state, p.pod.ID, s.items)
			}
			if p.state == statePending && p.arrivedAt >= 0 && c.finalized {
				if arrived := p.pod.Arrival <= c.cfg.Horizon; arrived && inQueue[i] != 1 {
					leakf("pending pod %s appears %d times in the queue", p.pod.ID, inQueue[i])
				}
			}
		}
		// Placement-map reconciliation: nid ∈ onNodes ⟺ node nid holds an
		// item of the pod.
		onMap := map[int]bool{}
		for _, nid := range p.onNodes {
			if onMap[nid] {
				leakf("pod %s placement map lists node %d twice", p.pod.ID, nid)
			}
			onMap[nid] = true
			if !itemNodes[p.pod.ID][nid] {
				leakf("pod %s placement map lists node %d, which holds none of its items", p.pod.ID, nid)
			}
		}
		for nid := range itemNodes[p.pod.ID] {
			if !onMap[nid] {
				leakf("pod %s has items on node %d missing from its placement map", p.pod.ID, nid)
			}
		}
	}
	// Conservation: every pod that entered this world (arrival or
	// transfer-in) left it exactly one way.
	if c.finalized {
		got := c.res.Departed + c.res.Running + c.res.StillPending + c.res.Failed + c.res.TransferredOut
		want := c.res.Arrived + c.res.TransferredIn + c.res.Adopted
		if got != want {
			leakf("conservation broken: departed %d + running %d + pending %d + failed %d + xfer-out %d != arrived %d + xfer-in %d + adopted %d",
				c.res.Departed, c.res.Running, c.res.StillPending, c.res.Failed,
				c.res.TransferredOut, c.res.Arrived, c.res.TransferredIn, c.res.Adopted)
		}
	}
	return leaks
}
