// Package snapshot serializes cluster world snapshots and serves what-if
// branch queries against a resident base world.
//
// The codec is a versioned binary format ("NLW1"): varints for the
// integers, IEEE-754 bit patterns for the floats (exactness is the whole
// point — a snapshot round-trips the float accumulator states bit for
// bit), length-prefixed strings, and map contents in sorted key order so
// Encode is a pure function of the world state. Decode is hostile-input
// safe: every count is bounds-checked against the remaining input, so a
// truncated, corrupted or version-skewed snapshot returns an error —
// never a panic, never an over-allocation.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"nestless/internal/cloudsim"
	"nestless/internal/cluster"
	"nestless/internal/faults"
	"nestless/internal/sim"
	"nestless/internal/trace"
)

// magic identifies a nestless world snapshot stream.
const magic = "NLW1"

// version is the current format version. Decode rejects anything else:
// the format carries simulation state whose meaning is tied to this
// exact code, so there is no cross-version compatibility to pretend to.
// v2 added the cloud model: zone/spot node identity, the machine
// subsystem's Config knobs, the fallback credit, and the Result's
// reconcile/revocation counters and cost split.
// v3 added the trajectory downsampler: Config.SampleCap, the per-Sample
// window aggregates (Points and the Sum* fields), and the open partial
// window (Snapshot.TrajWin).
// v4 dropped the linear-scan reference scheduler: its Config bit and its
// sorted-slice pending queue (the heap array is the only queue).
// v5 dropped the imperative autoscaler's mode and the four control-loop
// periods that became constants (ScaleEvery, IdleGrace,
// ProvisionRetryEvery, RepackDirtyFrac).
const version = 5

// maxRandDraws bounds the RNG stream positions the codec will accept.
// Restoring a stream position replays that many draws, so an unbounded
// count would let a hostile snapshot buy an arbitrarily long burn loop.
// Real worlds sit far below this — one draw per fault probability roll,
// ~3M for a 100k-pod chaos run — and a world past the bound still
// snapshots in memory (Capture/Restore are uncapped); only the byte
// codec refuses it.
const maxRandDraws = 1 << 24

// Encode serializes a snapshot. The format is private to Decode; treat
// the bytes as opaque.
func Encode(s *cluster.Snapshot) ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("snapshot: encode nil snapshot")
	}
	if s.Eng.Rand.Draws > maxRandDraws {
		return nil, fmt.Errorf("snapshot: engine RNG position %d exceeds the codec bound %d", s.Eng.Rand.Draws, maxRandDraws)
	}
	if s.Inj != nil && s.Inj.Rand.Draws > maxRandDraws {
		return nil, fmt.Errorf("snapshot: injector RNG position %d exceeds the codec bound %d", s.Inj.Rand.Draws, maxRandDraws)
	}
	e := &enc{}
	e.raw([]byte(magic))
	e.uvarint(version)

	// Config.
	e.varint(s.Cfg.Seed)
	e.uvarint(uint64(s.Cfg.Policy))
	e.dur(s.Cfg.Horizon)
	e.dur(s.Cfg.BootDelay)
	e.dur(s.Cfg.SampleEvery)
	e.uvarint(s.Cfg.MaxSteps)
	e.bool(s.Cfg.FullRepack)
	e.varint(int64(s.Cfg.RepackWorkers))
	e.varint(int64(s.Cfg.PackCacheSize))
	e.varint(int64(s.Cfg.SampleCap))
	e.varint(int64(s.Cfg.Zones))
	e.uvarint(uint64(len(s.Cfg.ZoneNames)))
	for _, z := range s.Cfg.ZoneNames {
		e.str(z)
	}
	e.f64(s.Cfg.SpotFrac)
	e.uvarint(uint64(len(s.Cfg.SpotDiscount)))
	for _, f := range s.Cfg.SpotDiscount {
		e.f64(f)
	}
	e.uvarint(uint64(len(s.Cfg.Catalog)))
	for _, t := range s.Cfg.Catalog {
		e.str(t.Name)
		e.varint(int64(t.VCPU))
		e.varint(int64(t.MemGB))
		e.f64(t.RelCPU)
		e.f64(t.RelMem)
		e.f64(t.PricePerH)
	}
	e.str(s.FaultsSpec)

	// Engine.
	e.varint(int64(s.Eng.Now))
	e.uvarint(s.Eng.Seq)
	e.uvarint(s.Eng.Steps)
	e.varint(s.Eng.Rand.Seed)
	e.uvarint(s.Eng.Rand.Draws)

	// Pods.
	e.uvarint(uint64(len(s.Pods)))
	for i := range s.Pods {
		p := &s.Pods[i]
		e.str(p.Pod.ID)
		e.uvarint(uint64(len(p.Pod.Containers)))
		for _, ct := range p.Pod.Containers {
			e.f64(ct.CPU)
			e.f64(ct.Mem)
		}
		e.dur(p.Pod.Arrival)
		e.dur(p.Pod.Lifetime)
		e.str(p.User)
		e.varint(int64(p.State))
		e.varint(int64(p.ArrivedAt))
		e.varint(int64(p.WaitSince))
		e.varint(int64(p.PlacedAt))
		e.dur(p.Remaining)
		e.varint(int64(p.DepartGen))
		e.bool(p.ScheduledOnce)
		e.bool(p.Displaced)
		e.uvarint(uint64(len(p.OnNodes)))
		for _, nid := range p.OnNodes {
			e.varint(int64(nid))
		}
	}

	// Nodes and fleet lists.
	e.uvarint(uint64(len(s.Nodes)))
	for i := range s.Nodes {
		n := &s.Nodes[i]
		e.varint(int64(n.Typ))
		e.varint(int64(n.Zone))
		e.bool(n.Spot)
		e.bool(n.Live)
		e.varint(int64(n.BornAt))
		e.varint(int64(n.IdleSince))
		e.placedItems(n.Items)
	}
	e.i32s(s.LiveList)
	e.varint(int64(s.DeadLive))
	e.i32s(s.DirtyList)

	// Pending queue.
	e.uvarint(uint64(len(s.PQ)))
	for _, q := range s.PQ {
		e.f64(q.Key)
		e.uvarint(q.Seq)
		e.varint(int64(q.Idx))
	}
	e.uvarint(s.EnqSeq)

	// Scheduler scalars.
	e.varint(int64(s.BlockedPod))
	e.uvarint(s.BlockedVer)
	e.uvarint(s.IdxVer)
	e.varint(int64(s.Inflight))
	e.varint(int64(s.OdFallback))
	e.bool(s.Dirty)
	e.bool(s.Started)
	e.bool(s.Finalized)

	// Pending events.
	e.uvarint(uint64(len(s.Events)))
	for _, ev := range s.Events {
		e.varint(int64(ev.At))
		e.uvarint(ev.Seq)
		e.uvarint(uint64(ev.Kind))
		e.varint(ev.A)
		e.varint(ev.B)
	}

	// Result.
	r := &s.Res
	e.uvarint(uint64(r.Policy))
	for _, v := range []int{
		r.Arrived, r.BeyondHorizon, r.Scheduled, r.Departed, r.Running,
		r.StillPending, r.Failed, r.Displaced, r.Reschedules, r.Kills,
		r.TransferredIn, r.TransferredOut, r.Adopted,
		r.ScaleUps, r.ScaleDowns, r.ProvisionRetries,
		r.OptimizerRuns, r.OptimizerFull, r.OptimizerMoves, r.OptimizerGroups,
		r.OptimizerCacheHits, r.OptimizerCacheMisses,
		r.PeakNodes, r.FinalNodes,
		r.ReconcileRounds, r.ReconcileActions, r.SpotProvisions,
		r.SpotRevocations, r.OnDemandFallbacks, r.ZoneKills,
	} {
		e.varint(int64(v))
	}
	e.uvarint(uint64(len(r.FleetTypes)))
	for _, t := range r.FleetTypes {
		e.varint(int64(t))
	}
	e.uvarint(uint64(len(r.ZoneSpread)))
	for _, z := range r.ZoneSpread {
		e.varint(int64(z))
	}
	e.f64(r.CostDollars)
	e.f64(r.FinalCostPerH)
	e.f64(r.CostSpotDollars)
	e.f64(r.CostOnDemandDollars)
	e.dur(r.TTSSum)
	e.dur(r.TTSMean)
	e.dur(r.TTSP95)
	e.dur(r.TTSMax)
	e.uvarint(uint64(len(r.Samples)))
	for _, sm := range r.Samples {
		e.sample(sm)
	}
	e.sample(s.TrajWin)

	// Time-to-schedule series.
	e.uvarint(uint64(len(s.TTS.Samples)))
	for _, v := range s.TTS.Samples {
		e.f64(v)
	}
	e.bool(s.TTS.Sorted)
	e.f64(s.TTS.Sum)
	e.f64(s.TTS.SumSq)

	// Fault injector.
	e.bool(s.Inj != nil)
	if s.Inj != nil {
		e.varint(s.Inj.Rand.Seed)
		e.uvarint(s.Inj.Rand.Draws)
		e.uvarint(uint64(len(s.Inj.Rules)))
		for _, rc := range s.Inj.Rules {
			e.uvarint(rc.Hits)
			e.uvarint(rc.Fires)
		}
		keys := make([]string, 0, len(s.Inj.Counts))
		for k := range s.Inj.Counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.uvarint(uint64(len(keys)))
		for _, k := range keys {
			e.str(k)
			e.uvarint(s.Inj.Counts[k])
		}
		e.uvarint(s.Inj.Total)
	}

	// Packing cache.
	e.bool(s.Pack != nil)
	if s.Pack != nil {
		e.varint(int64(s.Pack.Cap))
		e.uvarint(uint64(len(s.Pack.Entries)))
		for i := range s.Pack.Entries {
			e.placedVMs(s.Pack.Entries[i].Input)
			e.placedVMs(s.Pack.Entries[i].Output)
		}
		e.uvarint(s.Pack.Hits)
		e.uvarint(s.Pack.Misses)
		e.uvarint(s.Pack.Evictions)
	}
	return e.buf, nil
}

// Decode parses an Encode stream back into a snapshot. Any deviation —
// wrong magic, unknown version, truncation, counts past the input,
// trailing bytes — is an error; Decode never panics on hostile input.
// The structural validity of the world itself (index ranges, event
// kinds, conservation of the inflight count) is cluster.Restore's check:
// Decode guarantees only a well-formed Snapshot value.
func Decode(b []byte) (*cluster.Snapshot, error) {
	d := &dec{b: b}
	if string(d.raw(4)) != magic {
		return nil, fmt.Errorf("snapshot: bad magic (not a nestless snapshot)")
	}
	if v := d.uvarint(); d.err == nil && v != version {
		return nil, fmt.Errorf("snapshot: format version %d, this build reads %d", v, version)
	}
	s := &cluster.Snapshot{}

	// Config.
	s.Cfg.Seed = d.varint()
	s.Cfg.Policy = cluster.Policy(d.uvarint())
	if d.err == nil && s.Cfg.Policy != cluster.Kubernetes && s.Cfg.Policy != cluster.Hostlo {
		return nil, fmt.Errorf("snapshot: unknown policy %d", s.Cfg.Policy)
	}
	s.Cfg.Horizon = d.dur()
	s.Cfg.BootDelay = d.dur()
	s.Cfg.SampleEvery = d.dur()
	s.Cfg.MaxSteps = d.uvarint()
	s.Cfg.FullRepack = d.bool()
	s.Cfg.RepackWorkers = int(d.varint())
	s.Cfg.PackCacheSize = int(d.varint())
	s.Cfg.SampleCap = int(d.varint())
	s.Cfg.Zones = int(d.varint())
	for i, n := 0, d.count(1); i < n; i++ {
		s.Cfg.ZoneNames = append(s.Cfg.ZoneNames, d.str())
	}
	s.Cfg.SpotFrac = d.f64()
	for i, n := 0, d.count(8); i < n; i++ {
		s.Cfg.SpotDiscount = append(s.Cfg.SpotDiscount, d.f64())
	}
	for i, n := 0, d.count(1); i < n; i++ {
		t := cloudsim.VMType{
			Name:   d.str(),
			VCPU:   int(d.varint()),
			MemGB:  int(d.varint()),
			RelCPU: d.f64(),
			RelMem: d.f64(),
		}
		t.PricePerH = d.f64()
		s.Cfg.Catalog = append(s.Cfg.Catalog, t)
	}
	s.FaultsSpec = d.str()
	if d.err == nil && s.FaultsSpec != "" {
		sched, err := faults.ParseSpec(s.FaultsSpec)
		if err != nil {
			return nil, fmt.Errorf("snapshot: embedded fault spec: %w", err)
		}
		s.Cfg.Faults = sched
	}

	// Engine.
	s.Eng.Now = sim.Time(d.varint())
	s.Eng.Seq = d.uvarint()
	s.Eng.Steps = d.uvarint()
	s.Eng.Rand.Seed = d.varint()
	s.Eng.Rand.Draws = d.uvarint()
	if d.err == nil && s.Eng.Rand.Draws > maxRandDraws {
		return nil, fmt.Errorf("snapshot: engine RNG position %d exceeds the codec bound %d", s.Eng.Rand.Draws, maxRandDraws)
	}

	// Pods.
	for i, n := 0, d.count(8); i < n; i++ {
		p := cluster.PodSnap{}
		p.Pod.ID = d.str()
		for j, m := 0, d.count(2); j < m; j++ {
			p.Pod.Containers = append(p.Pod.Containers, trace.Container{CPU: d.f64(), Mem: d.f64()})
		}
		p.Pod.Arrival = d.dur()
		p.Pod.Lifetime = d.dur()
		p.User = d.str()
		p.State = int8(d.varint())
		p.ArrivedAt = sim.Time(d.varint())
		p.WaitSince = sim.Time(d.varint())
		p.PlacedAt = sim.Time(d.varint())
		p.Remaining = d.dur()
		p.DepartGen = int(d.varint())
		p.ScheduledOnce = d.bool()
		p.Displaced = d.bool()
		for j, m := 0, d.count(1); j < m; j++ {
			p.OnNodes = append(p.OnNodes, int32(d.varint()))
		}
		if d.err != nil {
			return nil, d.err
		}
		s.Pods = append(s.Pods, p)
	}

	// Nodes and fleet lists.
	for i, n := 0, d.count(4); i < n; i++ {
		ns := cluster.NodeSnap{
			Typ:       int32(d.varint()),
			Zone:      int32(d.varint()),
			Spot:      d.bool(),
			Live:      d.bool(),
			BornAt:    sim.Time(d.varint()),
			IdleSince: sim.Time(d.varint()),
			Items:     d.placedItems(),
		}
		if d.err != nil {
			return nil, d.err
		}
		s.Nodes = append(s.Nodes, ns)
	}
	s.LiveList = d.i32s()
	s.DeadLive = int(d.varint())
	s.DirtyList = d.i32s()

	// Pending queue.
	for i, n := 0, d.count(3); i < n; i++ {
		s.PQ = append(s.PQ, cluster.QueueSnap{Key: d.f64(), Seq: d.uvarint(), Idx: int32(d.varint())})
	}
	s.EnqSeq = d.uvarint()

	// Scheduler scalars.
	s.BlockedPod = int(d.varint())
	s.BlockedVer = d.uvarint()
	s.IdxVer = d.uvarint()
	s.Inflight = int(d.varint())
	s.OdFallback = int(d.varint())
	s.Dirty = d.bool()
	s.Started = d.bool()
	s.Finalized = d.bool()

	// Pending events.
	for i, n := 0, d.count(5); i < n; i++ {
		s.Events = append(s.Events, cluster.EventSnap{
			At:   sim.Time(d.varint()),
			Seq:  d.uvarint(),
			Kind: uint8(d.uvarint()),
			A:    d.varint(),
			B:    d.varint(),
		})
	}

	// Result.
	r := &s.Res
	r.Policy = cluster.Policy(d.uvarint())
	for _, p := range []*int{
		&r.Arrived, &r.BeyondHorizon, &r.Scheduled, &r.Departed, &r.Running,
		&r.StillPending, &r.Failed, &r.Displaced, &r.Reschedules, &r.Kills,
		&r.TransferredIn, &r.TransferredOut, &r.Adopted,
		&r.ScaleUps, &r.ScaleDowns, &r.ProvisionRetries,
		&r.OptimizerRuns, &r.OptimizerFull, &r.OptimizerMoves, &r.OptimizerGroups,
		&r.OptimizerCacheHits, &r.OptimizerCacheMisses,
		&r.PeakNodes, &r.FinalNodes,
		&r.ReconcileRounds, &r.ReconcileActions, &r.SpotProvisions,
		&r.SpotRevocations, &r.OnDemandFallbacks, &r.ZoneKills,
	} {
		*p = int(d.varint())
	}
	for i, n := 0, d.count(1); i < n; i++ {
		r.FleetTypes = append(r.FleetTypes, int(d.varint()))
	}
	for i, n := 0, d.count(1); i < n; i++ {
		r.ZoneSpread = append(r.ZoneSpread, int(d.varint()))
	}
	r.CostDollars = d.f64()
	r.FinalCostPerH = d.f64()
	r.CostSpotDollars = d.f64()
	r.CostOnDemandDollars = d.f64()
	r.TTSSum = d.dur()
	r.TTSMean = d.dur()
	r.TTSP95 = d.dur()
	r.TTSMax = d.dur()
	for i, n := 0, d.count(12); i < n; i++ {
		r.Samples = append(r.Samples, d.sample())
	}
	s.TrajWin = d.sample()

	// Time-to-schedule series.
	for i, n := 0, d.count(8); i < n; i++ {
		s.TTS.Samples = append(s.TTS.Samples, d.f64())
	}
	s.TTS.Sorted = d.bool()
	s.TTS.Sum = d.f64()
	s.TTS.SumSq = d.f64()

	// Fault injector.
	if d.bool() {
		inj := &faults.InjectorState{Counts: map[string]uint64{}}
		inj.Rand.Seed = d.varint()
		inj.Rand.Draws = d.uvarint()
		if d.err == nil && inj.Rand.Draws > maxRandDraws {
			return nil, fmt.Errorf("snapshot: injector RNG position %d exceeds the codec bound %d", inj.Rand.Draws, maxRandDraws)
		}
		for i, n := 0, d.count(2); i < n; i++ {
			inj.Rules = append(inj.Rules, faults.RuleCursor{Hits: d.uvarint(), Fires: d.uvarint()})
		}
		for i, n := 0, d.count(2); i < n; i++ {
			k := d.str()
			v := d.uvarint()
			if d.err != nil {
				return nil, d.err
			}
			if _, dup := inj.Counts[k]; dup {
				return nil, fmt.Errorf("snapshot: injector count %q repeated", k)
			}
			inj.Counts[k] = v
		}
		inj.Total = d.uvarint()
		s.Inj = inj
	}

	// Packing cache.
	if d.bool() {
		pc := &cloudsim.PackCacheState{Cap: int(d.varint())}
		for i, n := 0, d.count(2); i < n; i++ {
			pc.Entries = append(pc.Entries, cloudsim.PackCacheEntry{
				Input:  d.placedVMs(),
				Output: d.placedVMs(),
			})
			if d.err != nil {
				return nil, d.err
			}
		}
		pc.Hits = d.uvarint()
		pc.Misses = d.uvarint()
		pc.Evictions = d.uvarint()
		s.Pack = pc
	}

	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after the snapshot", len(d.b)-d.off)
	}
	return s, nil
}

// enc is the append-only encoder. Unlike dec it cannot fail.
type enc struct{ buf []byte }

func (e *enc) raw(b []byte)        { e.buf = append(e.buf, b...) }
func (e *enc) uvarint(v uint64)    { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) varint(v int64)      { e.buf = binary.AppendVarint(e.buf, v) }
func (e *enc) dur(v time.Duration) { e.varint(int64(v)) }
func (e *enc) f64(v float64)       { e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v)) }
func (e *enc) bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}
func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *enc) i32s(v []int32) {
	e.uvarint(uint64(len(v)))
	for _, x := range v {
		e.varint(int64(x))
	}
}
func (e *enc) placedItems(items []cloudsim.PlacedItem) {
	e.uvarint(uint64(len(items)))
	for _, it := range items {
		e.str(it.Pod)
		e.f64(it.CPU)
		e.f64(it.Mem)
	}
}
func (e *enc) placedVMs(vms []cloudsim.PlacedVM) {
	e.uvarint(uint64(len(vms)))
	for _, vm := range vms {
		e.varint(int64(vm.Type))
		e.placedItems(vm.Items)
	}
}
func (e *enc) sample(s cluster.Sample) {
	e.varint(int64(s.T))
	e.f64(s.CostPerH)
	e.varint(int64(s.Pending))
	e.varint(int64(s.Nodes))
	e.f64(s.UsedCPU)
	e.f64(s.CapCPU)
	e.varint(int64(s.Points))
	e.f64(s.SumCostPerH)
	e.varint(int64(s.SumPending))
	e.varint(int64(s.SumNodes))
	e.f64(s.SumUsedCPU)
	e.f64(s.SumCapCPU)
}

// dec is the bounds-checked decoder: the first malformed read latches
// d.err and every later read returns a zero value, so call sites can
// decode a whole section and check once.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: "+format+" at offset %d", append(args, d.off)...)
	}
}

func (d *dec) raw(n int) []byte {
	if d.err != nil || d.off+n > len(d.b) {
		d.fail("truncated (%d bytes short)", d.off+n-len(d.b))
		return make([]byte, n)
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

func (d *dec) dur() time.Duration { return time.Duration(d.varint()) }

func (d *dec) f64() float64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

func (d *dec) bool() bool {
	if d.err != nil || d.off >= len(d.b) {
		d.fail("truncated bool")
		return false
	}
	v := d.b[d.off]
	d.off++
	if v > 1 {
		d.fail("bad bool %d", v)
		return false
	}
	return v == 1
}

// count reads an element count and rejects any value that could not fit
// in the remaining input at minBytes encoded bytes per element — the
// allocation guard that keeps a hostile length prefix from buying a
// giant make().
func (d *dec) count(minBytes int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.b)-d.off)/uint64(minBytes)+1 {
		d.fail("count %d exceeds the remaining input", v)
		return 0
	}
	return int(v)
}

func (d *dec) str() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	return string(d.raw(n))
}

func (d *dec) i32s() []int32 {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, int32(d.varint()))
	}
	return out
}

func (d *dec) placedItems() []cloudsim.PlacedItem {
	n := d.count(17) // 1-byte pod id length + two 8-byte floats
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]cloudsim.PlacedItem, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, cloudsim.PlacedItem{Pod: d.str(), CPU: d.f64(), Mem: d.f64()})
	}
	return out
}

func (d *dec) sample() cluster.Sample {
	return cluster.Sample{
		T:           sim.Time(d.varint()),
		CostPerH:    d.f64(),
		Pending:     int(d.varint()),
		Nodes:       int(d.varint()),
		UsedCPU:     d.f64(),
		CapCPU:      d.f64(),
		Points:      int(d.varint()),
		SumCostPerH: d.f64(),
		SumPending:  int(d.varint()),
		SumNodes:    int(d.varint()),
		SumUsedCPU:  d.f64(),
		SumCapCPU:   d.f64(),
	}
}

func (d *dec) placedVMs() []cloudsim.PlacedVM {
	n := d.count(2)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]cloudsim.PlacedVM, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, cloudsim.PlacedVM{Type: int(d.varint()), Items: d.placedItems()})
	}
	return out
}
