// Package snapshot serializes cluster world snapshots and serves what-if
// branch queries against a resident base world.
//
// The codec is a versioned binary format ("NLW1"): varints for the
// integers, IEEE-754 bit patterns for the floats (exactness is the whole
// point — a snapshot round-trips the float accumulator states bit for
// bit), length-prefixed strings, and map contents in sorted key order so
// Encode is a pure function of the world state. One walk lists the
// format: walk visits every field through a pointer, in stream order;
// encoding reads through each pointer and decoding writes through it,
// so the two directions cannot disagree. Decode is hostile-input safe:
// every count is bounds-checked against the remaining input, so a
// truncated, corrupted or version-skewed snapshot returns an error —
// never a panic, never an over-allocation. The checks that only make
// sense one way sit outside the walk: Decode alone reads the magic and
// version and refuses trailing bytes, and it checks the policy, parses
// the embedded fault spec and keys the packing cache after the walk.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

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
// v6 dropped the Hostlo pass knobs: the whole-fleet pass pin and the
// pass worker count (a pass runs one way, serially, on its world's goroutine).
// v7 dropped the trajectory downsampler and the step guard: the sample
// period, MaxSteps, SampleCap, the open partial window and each Sample's
// window aggregates (the period is Horizon/12, derived at restore).
// v8 dropped the packing cache's size knob and private counters: the
// Config's cache size, the cache capacity (a constant now) and its hit,
// miss and eviction counts (Result's optimizer cache counters carry the
// same traffic).
const version = 8

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
	c := &codec{b: binary.AppendUvarint([]byte(magic), version)}
	walk(c, s)
	if c.err != nil {
		return nil, c.err
	}
	return c.b, nil
}

// Decode parses an Encode stream back into a snapshot. Any deviation —
// wrong magic, unknown version, truncation, counts past the input,
// trailing bytes — is an error; Decode never panics on hostile input.
// The structural validity of the world itself (index ranges, event
// kinds, conservation of the inflight count) is cluster.Restore's check:
// Decode guarantees only a well-formed Snapshot value.
func Decode(b []byte) (*cluster.Snapshot, error) {
	c := &codec{dec: true, b: b}
	if string(c.raw(len(magic))) != magic {
		return nil, fmt.Errorf("snapshot: bad magic (not a nestless snapshot)")
	}
	var v uint64
	if c.u64(&v); c.err == nil && v != version {
		return nil, fmt.Errorf("snapshot: format version %d, this build reads %d", v, version)
	}
	s := &cluster.Snapshot{}
	walk(c, s)
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(c.b) {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after the snapshot", len(c.b)-c.off)
	}
	if s.Cfg.Policy != cluster.Kubernetes && s.Cfg.Policy != cluster.Hostlo {
		return nil, fmt.Errorf("snapshot: unknown policy %d", s.Cfg.Policy)
	}
	if s.FaultsSpec != "" {
		sched, err := faults.ParseSpec(s.FaultsSpec)
		if err != nil {
			return nil, fmt.Errorf("snapshot: embedded fault spec: %w", err)
		}
		s.Cfg.Faults = sched
	}
	if s.Pack != nil {
		// Keys are not serialized: the constructor derives them once,
		// before the snapshot is shared with concurrent restores. An
		// entry count above the cache capacity is Restore's to refuse.
		s.Pack = cloudsim.NewPackCacheState(s.Pack.Entries)
	}
	return s, nil
}

// walk lists the format: every field of s, in stream order.
func walk(c *codec, s *cluster.Snapshot) {
	// Config.
	cfg := &s.Cfg
	vint(c, &cfg.Seed)
	uvint(c, &cfg.Policy)
	vint(c, &cfg.Horizon)
	vint(c, &cfg.BootDelay)
	vint(c, &cfg.Zones)
	seq(c, &cfg.ZoneNames, 1, (*codec).str)
	c.f64(&cfg.SpotFrac)
	seq(c, &cfg.SpotDiscount, 8, (*codec).f64)
	seq(c, &cfg.Catalog, 1, func(c *codec, t *cloudsim.VMType) {
		c.str(&t.Name)
		vint(c, &t.VCPU)
		vint(c, &t.MemGB)
		c.f64(&t.RelCPU)
		c.f64(&t.RelMem)
		c.f64(&t.PricePerH)
	})
	c.str(&s.FaultsSpec)

	// Engine.
	vint(c, &s.Eng.Now)
	c.u64(&s.Eng.Seq)
	c.u64(&s.Eng.Steps)
	c.rand(&s.Eng.Rand, "engine")

	// Pods.
	seq(c, &s.Pods, 8, func(c *codec, p *cluster.PodSnap) {
		c.str(&p.Pod.ID)
		seq(c, &p.Pod.Containers, 2, func(c *codec, ct *trace.Container) {
			c.f64(&ct.CPU)
			c.f64(&ct.Mem)
		})
		vint(c, &p.Pod.Arrival)
		vint(c, &p.Pod.Lifetime)
		c.str(&p.User)
		vint(c, &p.State)
		vint(c, &p.ArrivedAt)
		vint(c, &p.WaitSince)
		vint(c, &p.PlacedAt)
		vint(c, &p.Remaining)
		vint(c, &p.DepartGen)
		c.bool(&p.ScheduledOnce)
		c.bool(&p.Displaced)
		seq(c, &p.OnNodes, 1, vint[int32])
	})

	// Nodes and fleet lists.
	seq(c, &s.Nodes, 4, func(c *codec, n *cluster.NodeSnap) {
		vint(c, &n.Typ)
		vint(c, &n.Zone)
		c.bool(&n.Spot)
		c.bool(&n.Live)
		vint(c, &n.BornAt)
		vint(c, &n.IdleSince)
		placedItems(c, &n.Items)
	})
	seq(c, &s.LiveList, 1, vint[int32])
	vint(c, &s.DeadLive)
	seq(c, &s.DirtyList, 1, vint[int32])

	// Pending queue.
	seq(c, &s.PQ, 3, func(c *codec, q *cluster.QueueSnap) {
		c.f64(&q.Key)
		c.u64(&q.Seq)
		vint(c, &q.Idx)
	})
	c.u64(&s.EnqSeq)

	// Scheduler scalars.
	vint(c, &s.BlockedPod)
	c.u64(&s.BlockedVer)
	c.u64(&s.IdxVer)
	vint(c, &s.Inflight)
	vint(c, &s.OdFallback)
	c.bool(&s.Dirty)
	c.bool(&s.Started)
	c.bool(&s.Finalized)

	// Pending events.
	seq(c, &s.Events, 5, func(c *codec, ev *cluster.EventSnap) {
		vint(c, &ev.At)
		c.u64(&ev.Seq)
		uvint(c, &ev.Kind)
		vint(c, &ev.A)
		vint(c, &ev.B)
	})

	// Result.
	r := &s.Res
	uvint(c, &r.Policy)
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
		vint(c, p)
	}
	seq(c, &r.FleetTypes, 1, vint[int])
	seq(c, &r.ZoneSpread, 1, vint[int])
	c.f64(&r.CostDollars)
	c.f64(&r.FinalCostPerH)
	c.f64(&r.CostSpotDollars)
	c.f64(&r.CostOnDemandDollars)
	vint(c, &r.TTSSum)
	vint(c, &r.TTSMean)
	vint(c, &r.TTSP95)
	vint(c, &r.TTSMax)
	seq(c, &r.Samples, 12, func(c *codec, sm *cluster.Sample) {
		vint(c, &sm.T)
		c.f64(&sm.CostPerH)
		vint(c, &sm.Pending)
		vint(c, &sm.Nodes)
		c.f64(&sm.UsedCPU)
		c.f64(&sm.CapCPU)
	})

	// Time-to-schedule series.
	seq(c, &s.TTS.Samples, 8, (*codec).f64)
	c.bool(&s.TTS.Sorted)
	c.f64(&s.TTS.Sum)
	c.f64(&s.TTS.SumSq)

	// Fault injector.
	opt(c, &s.Inj, func(c *codec, inj *faults.InjectorState) {
		c.rand(&inj.Rand, "injector")
		seq(c, &inj.Rules, 2, func(c *codec, rc *faults.RuleCursor) {
			c.u64(&rc.Hits)
			c.u64(&rc.Fires)
		})
		c.counts(&inj.Counts)
		c.u64(&inj.Total)
	})

	// Packing cache.
	opt(c, &s.Pack, func(c *codec, p *cloudsim.PackCacheState) {
		seq(c, &p.Entries, 2, func(c *codec, e *cloudsim.PackCacheEntry) {
			placedVMs(c, &e.Input)
			placedVMs(c, &e.Output)
		})
	})
}

func placedVMs(c *codec, vms *[]cloudsim.PlacedVM) {
	seq(c, vms, 2, func(c *codec, vm *cloudsim.PlacedVM) {
		vint(c, &vm.Type)
		placedItems(c, &vm.Items)
	})
}

func placedItems(c *codec, items *[]cloudsim.PlacedItem) {
	// 17: a 1-byte pod id length and two 8-byte floats.
	seq(c, items, 17, func(c *codec, it *cloudsim.PlacedItem) {
		c.str(&it.Pod)
		c.f64(&it.CPU)
		c.f64(&it.Mem)
	})
}

// codec runs the walk one way. Encoding (dec false) appends each field
// to b and writes nothing through the walk's pointers, so a shared
// snapshot may be encoded while branches restore from it. Decoding
// reads b at off, and the first malformed read latches err: every later
// read leaves its field zero and every count reads 0, so the walk runs
// out quickly and the caller checks once.
type codec struct {
	dec bool
	b   []byte
	off int
	err error
}

func (c *codec) fail(format string, args ...interface{}) {
	if c.err == nil {
		c.err = fmt.Errorf("snapshot: "+format+" at offset %d", append(args, c.off)...)
	}
}

// raw consumes the next n input bytes (decoding only).
func (c *codec) raw(n int) []byte {
	if c.err != nil || c.off+n > len(c.b) {
		c.fail("truncated (%d bytes short)", c.off+n-len(c.b))
		return nil
	}
	v := c.b[c.off : c.off+n]
	c.off += n
	return v
}

func (c *codec) u64(p *uint64) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, *p)
		return
	}
	if c.err != nil {
		return
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail("bad uvarint")
		return
	}
	c.off += n
	*p = v
}

func (c *codec) i64(p *int64) {
	if !c.dec {
		c.b = binary.AppendVarint(c.b, *p)
		return
	}
	if c.err != nil {
		return
	}
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.fail("bad varint")
		return
	}
	c.off += n
	*p = v
}

// vint carries any signed integer field as a varint, and uvint any
// unsigned or enum field as a uvarint. Decoding converts to the field's
// type, truncating as a conversion does.
func vint[T ~int | ~int8 | ~int32 | ~int64](c *codec, p *T) {
	v := int64(*p)
	c.i64(&v)
	if c.dec {
		*p = T(v)
	}
}

func uvint[T ~int | ~uint8](c *codec, p *T) {
	v := uint64(*p)
	c.u64(&v)
	if c.dec {
		*p = T(v)
	}
}

func (c *codec) f64(p *float64) {
	if !c.dec {
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*p))
		return
	}
	if c.err != nil || c.off+8 > len(c.b) {
		c.fail("truncated float")
		return
	}
	*p = math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.off:]))
	c.off += 8
}

func (c *codec) bool(p *bool) {
	if !c.dec {
		var v byte
		if *p {
			v = 1
		}
		c.b = append(c.b, v)
		return
	}
	if c.err != nil || c.off >= len(c.b) {
		c.fail("truncated bool")
		return
	}
	v := c.b[c.off]
	c.off++
	if v > 1 {
		c.fail("bad bool %d", v)
		return
	}
	*p = v == 1
}

func (c *codec) str(p *string) {
	n := len(*p)
	c.count(&n, 1)
	if !c.dec {
		c.b = append(c.b, *p...)
	} else if c.err == nil {
		*p = string(c.raw(n))
	}
}

// count carries an element count. Decoding rejects any count that could
// not fit in the remaining input at minBytes encoded bytes per element —
// the allocation guard that keeps a hostile length prefix from buying a
// giant make().
func (c *codec) count(n *int, minBytes int) {
	v := uint64(*n)
	c.u64(&v)
	if !c.dec || c.err != nil {
		return
	}
	if v > uint64(len(c.b)-c.off)/uint64(minBytes)+1 {
		c.fail("count %d exceeds the remaining input", v)
		return
	}
	*n = int(v)
}

// seq carries a slice: its count, then each element through f. Decoding
// allocates the slice once, after count has bounded its length; an empty
// slice decodes as nil.
func seq[T any](c *codec, s *[]T, minBytes int, f func(*codec, *T)) {
	n := len(*s)
	c.count(&n, minBytes)
	if c.dec && n > 0 {
		*s = make([]T, n)
	}
	for i := range *s {
		if c.err != nil {
			return
		}
		f(c, &(*s)[i])
	}
}

// opt carries an optional pointer: a presence flag, then the value
// through f.
func opt[T any](c *codec, p **T, f func(*codec, *T)) {
	present := *p != nil
	c.bool(&present)
	if !present {
		return
	}
	if c.dec {
		*p = new(T)
	}
	f(c, *p)
}

// counts carries a string-keyed counter map in sorted key order, so the
// bytes are a function of the contents. Decoding refuses a repeated key
// and always yields a non-nil map.
func (c *codec) counts(m *map[string]uint64) {
	keys := make([]string, 0, len(*m))
	for k := range *m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if c.dec {
		*m = map[string]uint64{}
	}
	seq(c, &keys, 2, func(c *codec, k *string) {
		v := (*m)[*k]
		c.str(k)
		c.u64(&v)
		if !c.dec || c.err != nil {
			return
		}
		if _, dup := (*m)[*k]; dup {
			c.err = fmt.Errorf("snapshot: injector count %q repeated", *k)
		}
		(*m)[*k] = v
	})
}

// rand carries an RNG stream position and refuses one past
// maxRandDraws, encoding or decoding.
func (c *codec) rand(r *sim.RandState, stream string) {
	vint(c, &r.Seed)
	c.u64(&r.Draws)
	if c.err == nil && r.Draws > maxRandDraws {
		c.err = fmt.Errorf("snapshot: %s RNG position %d exceeds the codec bound %d", stream, r.Draws, maxRandDraws)
	}
}
