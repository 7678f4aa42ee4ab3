package cloudsim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"nestless/internal/trace"
)

// vm is one bought instance with its contents.
type vm struct {
	typ     int
	usedCPU float64
	usedMem float64
	items   []PlacedItem
	// splitPass memo: when splitClean, a trial re-pack of exactly these
	// items found nothing cheaper than catalog type splitCleanTyp.
	// packContainersFFD is deterministic in the items, so the verdict
	// stays valid until the contents change (place/remove clear it).
	splitClean    bool
	splitCleanTyp int
}

func (v *vm) freeCPU(c []VMType) float64 { return c[v.typ].RelCPU - v.usedCPU }
func (v *vm) freeMem(c []VMType) float64 { return c[v.typ].RelMem - v.usedMem }

// waste is free capacity (the inverse), used by the Hostlo pass.
func (v *vm) waste(c []VMType) float64 {
	return v.freeCPU(c) + v.freeMem(c)
}

func (v *vm) place(it PlacedItem) {
	v.items = append(v.items, it)
	v.usedCPU += it.CPU
	v.usedMem += it.Mem
	v.splitClean = false
}

func (v *vm) remove(i int) PlacedItem {
	it := v.items[i]
	v.items = append(v.items[:i], v.items[i+1:]...)
	v.usedCPU -= it.CPU
	v.usedMem -= it.Mem
	v.splitClean = false
	return it
}

// fleet is a user's set of bought VMs.
type fleet struct {
	catalog []VMType
	vms     []*vm
	// scratch holds the optimizer's reusable per-call buffers. A fleet
	// and all its clones share one instance: passes within an
	// improveHostlo call run strictly sequentially, and every
	// OptimizeHostlo call owns a private fleet chain, so sharing stays
	// safe even when calls run on parallel goroutines.
	scratch *optScratch
}

// optScratch is the shared buffer set (see fleet.scratch). The zero
// value is ready to use; buffers grow to the high-water mark of the
// call and stay there.
type optScratch struct {
	order  []int        // consolidate: candidate visit order
	wastes []float64    // consolidate: each VM's waste at entry, by position
	items  []PlacedItem // consolidate: sorted copy of the source VM's items
	plan   []consMove   // consolidate: tentative moves, kept for revert
	ffd    []PlacedItem // packContainersFFD: sorted copy of the input

	// packContainersFFD's sub-fleet arenas. The returned fleet aliases
	// them, so it is only valid until the next call with the same
	// scratch — splitPass copies the sub-VMs out on the (rare) accept.
	subVMs    []vm         // VM arena
	subPtrs   []*vm        // the returned fleet's vms slice
	subAssign []int        // item k → VM index
	subCounts []int        // items per VM
	subItems  []PlacedItem // final per-VM item storage, one flat arena
	subFleet  fleet        // the returned fleet header itself

	vmix vmIndex // consolidate: recycled target index storage

	// improveHostlo's clone double-buffer: at most two optimizer fleets
	// are alive at once (cur and the clone being evaluated), so clones
	// alternate between two recycled buffers instead of allocating.
	cbuf  [2]cloneBuf
	cbufN int // clones handed out; parity picks the buffer
}

// cloneBuf backs one recycled optimizer fleet (see optScratch.cbuf).
type cloneBuf struct {
	f      fleet
	vms    []*vm
	varena []vm
	iarena []PlacedItem
}

// scratchPool recycles optimizer scratch across OptimizeHostlo calls.
// Each call checks one out for its private fleet chain, so concurrent
// calls from different worlds (population users, shard worlds, what-if
// branches) never share state.
var scratchPool = sync.Pool{New: func() any { return &optScratch{} }}

// sc returns the fleet's scratch, creating it on first use (fleets
// built outside the optimizer entry points start without one).
func (f *fleet) sc() *optScratch {
	if f.scratch == nil {
		f.scratch = &optScratch{}
	}
	return f.scratch
}

// consMove records one tentative consolidate relocation.
type consMove struct {
	target *vm
	ord    int
	it     PlacedItem
}

// cost prices the fleet per hour.
func (f *fleet) cost() float64 {
	var c float64
	for _, v := range f.vms {
		c += f.catalog[v.typ].PricePerH
	}
	return c
}

// cloneBuffered deep-copies the fleet (for revertable optimisation
// passes) into one of the scratch's two recycled buffers: improveHostlo
// keeps at most two optimizer fleets alive, and the caller of the last
// clone copies the result out via fromFleet before the scratch is
// recycled. The vm structs and one flat item store are rebuilt per
// call, and each VM's items are capped sub-slices so a later place()
// grows a private copy instead of clobbering a neighbor.
func (f *fleet) cloneBuffered() *fleet {
	sc := f.sc()
	b := &sc.cbuf[sc.cbufN&1]
	sc.cbufN++
	total := 0
	for _, v := range f.vms {
		total += len(v.items)
	}
	if cap(b.vms) < len(f.vms) {
		b.vms = make([]*vm, len(f.vms))
		b.varena = make([]vm, len(f.vms))
	} else {
		b.vms = b.vms[:len(f.vms)]
		b.varena = b.varena[:len(f.vms)]
	}
	// Each VM's region carries cloneSlack spare capacity so the first
	// few place() calls consolidate aims at it extend in place instead
	// of reallocating (placements past the slack fall back to a private
	// append copy, same as before).
	const cloneSlack = 32
	need := total + cloneSlack*len(f.vms)
	if cap(b.iarena) < need {
		b.iarena = make([]PlacedItem, need)
	} else {
		b.iarena = b.iarena[:need]
	}
	pos := 0
	for i, v := range f.vms {
		cp := &b.varena[i]
		*cp = *v
		n := copy(b.iarena[pos:], v.items)
		cp.items = b.iarena[pos : pos+n : pos+n+cloneSlack]
		b.vms[i] = cp
		pos += n + cloneSlack
	}
	b.f = fleet{catalog: f.catalog, vms: b.vms, scratch: sc}
	return &b.f
}

// shrink retypes every VM to the cheapest model that still holds its
// contents and drops empty VMs.
func (f *fleet) shrink() {
	out := f.vms[:0]
	for _, v := range f.vms {
		if len(v.items) == 0 {
			continue
		}
		if t := CheapestFitting(f.catalog, v.usedCPU, v.usedMem); t >= 0 {
			v.typ = t
		}
		out = append(out, v)
	}
	f.vms = out
}

// ErrPodTooBig reports a pod that exceeds the largest machine under
// whole-pod placement.
type ErrPodTooBig struct{ Pod string }

func (e ErrPodTooBig) Error() string {
	return fmt.Sprintf("cloudsim: pod %s exceeds the largest VM", e.Pod)
}

// Policy selects the scheduler scoring for whole-pod placement.
type Policy int

// Scheduler policies: the paper simulates Kubernetes' "most requested"
// grouping strategy; "least requested" (spreading) is the ablation.
const (
	MostRequested Policy = iota
	LeastRequested
)

// packKubernetesPolicy runs the paper's baseline (steps 1–3): pods
// biggest first; whole pod onto the VM pol scores best among those that
// fit (most-requested in the paper), otherwise buy the cheapest type
// that fits the whole pod.
func packKubernetesPolicy(user trace.User, catalog []VMType, pol Policy) (*fleet, error) {
	pods := append([]trace.Pod(nil), user.Pods...)
	sort.SliceStable(pods, func(i, j int) bool {
		return pods[i].TotalCPU()+pods[i].TotalMem() > pods[j].TotalCPU()+pods[j].TotalMem()
	})
	f := &fleet{catalog: catalog}
	for _, p := range pods {
		cpu, mem := p.TotalCPU(), p.TotalMem()
		var best *vm
		var bestScore float64
		for _, v := range f.vms {
			if v.freeCPU(catalog) >= cpu && v.freeMem(catalog) >= mem {
				score := MostRequestedFraction(catalog[v.typ], v.usedCPU, v.usedMem)
				better := best == nil ||
					(pol == MostRequested && score > bestScore) ||
					(pol == LeastRequested && score < bestScore)
				if better {
					best, bestScore = v, score
				}
			}
		}
		if best == nil {
			t := CheapestFitting(catalog, cpu, mem)
			if t < 0 {
				return nil, ErrPodTooBig{Pod: p.ID}
			}
			best = &vm{typ: t}
			f.vms = append(f.vms, best)
		}
		for _, c := range p.Containers {
			best.place(PlacedItem{Pod: p.ID, CPU: c.CPU, Mem: c.Mem})
		}
	}
	return f, nil
}

// improveHostlo runs the paper's step 4 on a Kubernetes packing: move
// containers — smallest first — onto the VMs with the most wasted
// resources, then shrink/drop VMs. Passes repeat while they reduce cost;
// a pass that does not help is reverted, so the result never costs more
// than the baseline.
func improveHostlo(base *fleet) *fleet {
	cur := base.cloneBuffered()
	cur.shrink()
	if cur.cost() > base.cost() {
		cur = base.cloneBuffered()
	}
	for pass := 0; pass < 10; pass++ {
		next := cur.cloneBuffered()
		moved := next.consolidate()
		split := next.splitPass()
		next.shrink()
		if (!moved && !split) || next.cost() >= cur.cost() {
			break
		}
		cur = next
	}
	// A final split attempt catches single-VM fleets (nothing to
	// consolidate, but the pod may still be cheaper in pieces — the
	// paper's §2 motivating example). Skipped when every VM is already
	// trivially unsplittable or memoized clean: splitPass would report
	// false without mutating anything, so the clone is pure waste.
	needFinal := false
	for _, v := range cur.vms {
		if len(v.items) >= 2 && !(v.splitClean && v.splitCleanTyp == v.typ) {
			needFinal = true
			break
		}
	}
	if needFinal {
		final := cur.cloneBuffered()
		if final.splitPass() {
			final.shrink()
			if final.cost() < cur.cost() {
				cur = final
			}
		}
	}
	return cur
}

// splitPass replaces VMs whose contents re-pack into a strictly cheaper
// combination of (typically smaller) models — the "shrinking the sizes
// of VMs" half of the paper's step 4, which only container-level
// placement makes possible. Reports whether any VM was replaced.
//
// Two prunes keep the trials affordable on big fleets without changing
// a single verdict:
//
//   - A cost lower bound. Any fleet hosting (usedCPU, usedMem) buys at
//     least that much relative capacity, in quanta of the smallest
//     catalog size (when every size is a multiple of it), at no less
//     than the catalog's cheapest $/capacity rate. A VM at or under the
//     bound cannot re-pack strictly cheaper, so the trial is skipped.
//   - A memo. packContainersFFD is deterministic in the item multiset,
//     so a VM whose trial found no improvement stays clean — and is
//     skipped — until its contents change.
func (f *fleet) splitPass() bool {
	rates := floorRates(f.catalog)
	changed := false
	for i := 0; i < len(f.vms); i++ {
		v := f.vms[i]
		if len(v.items) < 2 {
			continue
		}
		if v.splitClean && v.splitCleanTyp == v.typ {
			continue
		}
		// The slack factor absorbs the few ulps by which the float bound
		// could exceed the true infimum; pruning must never be optimistic.
		if rates.repackBound(v.usedCPU, v.usedMem)*(1-1e-9) >= f.catalog[v.typ].PricePerH {
			continue
		}
		sub := packContainersFFD(v.items, f.catalog, f.sc())
		if sub == nil || sub.cost() >= f.catalog[v.typ].PricePerH {
			v.splitClean, v.splitCleanTyp = true, v.typ
			continue
		}
		// Replace v by the sub-fleet, copying the VMs out of the
		// scratch arenas the next packContainersFFD call will recycle.
		f.vms = append(f.vms[:i], f.vms[i+1:]...)
		for _, sv := range sub.vms {
			nv := &vm{typ: sv.typ, usedCPU: sv.usedCPU, usedMem: sv.usedMem,
				items: append([]PlacedItem(nil), sv.items...)}
			f.vms = append(f.vms, nv)
		}
		i--
		changed = true
	}
	return changed
}

// sortItemsBySize stably sorts items by cpu+mem, ascending or
// descending. Binary insertion sort — stable, allocation-free, and an
// order of magnitude cheaper than sort.SliceStable's reflection-based
// swapper on the short per-VM slices the optimizer sorts millions of
// times. Insertion order equals stable-sort order, so the switch is
// invisible to placement results.
func sortItemsBySize(items []PlacedItem, desc bool) {
	if desc {
		for i := 1; i < len(items); i++ {
			it := items[i]
			k := it.CPU + it.Mem
			j := i
			for j > 0 && items[j-1].CPU+items[j-1].Mem < k {
				items[j] = items[j-1]
				j--
			}
			items[j] = it
		}
		return
	}
	for i := 1; i < len(items); i++ {
		it := items[i]
		k := it.CPU + it.Mem
		j := i
		for j > 0 && items[j-1].CPU+items[j-1].Mem > k {
			items[j] = items[j-1]
			j--
		}
		items[j] = it
	}
}

// catalogRates carries splitPass's lower-bound ingredients: the
// catalog's cheapest price per unit of relative CPU / memory, and the
// capacity quantum per dimension — the smallest relative size, when
// every size is an integer multiple of it (0 otherwise, disabling the
// quantization and leaving the plain continuous bound).
type catalogRates struct {
	perCPU, perMem float64
	qCPU, qMem     float64
}

func floorRates(catalog []VMType) catalogRates {
	var r catalogRates
	r.qCPU, r.qMem = catalog[0].RelCPU, catalog[0].RelMem
	for i, t := range catalog {
		c, m := t.PricePerH/t.RelCPU, t.PricePerH/t.RelMem
		if i == 0 || c < r.perCPU {
			r.perCPU = c
		}
		if i == 0 || m < r.perMem {
			r.perMem = m
		}
		if t.RelCPU < r.qCPU {
			r.qCPU = t.RelCPU
		}
		if t.RelMem < r.qMem {
			r.qMem = t.RelMem
		}
	}
	for _, t := range catalog {
		if k := t.RelCPU / r.qCPU; math.Abs(k-math.Round(k)) > 1e-9 {
			r.qCPU = 0
		}
		if k := t.RelMem / r.qMem; math.Abs(k-math.Round(k)) > 1e-9 {
			r.qMem = 0
		}
	}
	return r
}

// repackBound is a sound lower bound on the hourly cost of any catalog
// fleet hosting (usedCPU, usedMem): bought capacity covers the demand,
// comes in whole-size quanta, and costs at least the floor rate.
func (r catalogRates) repackBound(usedCPU, usedMem float64) float64 {
	cpu, mem := usedCPU, usedMem
	if r.qCPU > 0 {
		cpu = math.Ceil(cpu/r.qCPU*(1-1e-12)) * r.qCPU
	}
	if r.qMem > 0 {
		mem = math.Ceil(mem/r.qMem*(1-1e-12)) * r.qMem
	}
	b := cpu * r.perCPU
	if m := mem * r.perMem; m > b {
		b = m
	}
	return b
}

// packContainersFFD packs items container-by-container: biggest first,
// most-requested existing VM that fits, else buy the cheapest fitting
// type. Returns nil if some item fits no machine. The sort copy lives
// in sc (the items themselves are copied by value into the new VMs, so
// reusing the buffer across calls is safe); pass nil for a one-shot
// call outside the optimizer loop.
func packContainersFFD(items []PlacedItem, catalog []VMType, sc *optScratch) *fleet {
	if sc == nil {
		sc = &optScratch{}
	}
	sorted := append(sc.ffd[:0], items...)
	sc.ffd = sorted
	sortItemsBySize(sorted, true)
	// Two-pass arena build. FFD's per-item choice reads only the used
	// sums, never the item slices, so pass 1 assigns every item to a VM
	// index while accumulating the sums in exactly the order the old
	// per-item place() calls did (identical floats), and pass 2 lays the
	// item slices out contiguously in one arena. The hot path — this
	// runs once per split probe, and most probes are discarded —
	// allocates nothing once the scratch arenas have warmed up.
	vms := sc.subVMs[:0]
	assign := sc.subAssign[:0]
	for _, it := range sorted {
		best := -1
		var bestScore float64
		for j := range vms {
			v := &vms[j]
			if v.freeCPU(catalog) >= it.CPU && v.freeMem(catalog) >= it.Mem {
				if score := MostRequestedFraction(catalog[v.typ], v.usedCPU, v.usedMem); best < 0 || score > bestScore {
					best, bestScore = j, score
				}
			}
		}
		if best < 0 {
			t := CheapestFitting(catalog, it.CPU, it.Mem)
			if t < 0 {
				sc.subVMs, sc.subAssign = vms, assign
				return nil
			}
			vms = append(vms, vm{typ: t})
			best = len(vms) - 1
		}
		vms[best].usedCPU += it.CPU
		vms[best].usedMem += it.Mem
		assign = append(assign, best)
	}
	counts := sc.subCounts[:0]
	for range vms {
		counts = append(counts, 0)
	}
	for _, j := range assign {
		counts[j]++
	}
	arena := sc.subItems[:0]
	if cap(arena) < len(sorted) {
		arena = make([]PlacedItem, 0, len(sorted))
	}
	arena = arena[:len(sorted)]
	offs := counts // reuse: counts[j] becomes the next write offset for VM j
	next := 0
	for j := range vms {
		c := offs[j]
		offs[j] = next
		vms[j].items = arena[next : next : next+c]
		next += c
	}
	for k, j := range assign {
		vms[j].items = append(vms[j].items, sorted[k])
	}
	ptrs := sc.subPtrs[:0]
	for j := range vms {
		ptrs = append(ptrs, &vms[j])
	}
	sc.subVMs, sc.subAssign, sc.subCounts, sc.subItems, sc.subPtrs =
		vms, assign, counts, arena, ptrs
	sc.subFleet = fleet{catalog: catalog, vms: ptrs}
	f := &sc.subFleet
	// Shrink the sub-fleet so "cheapest fitting at purchase" does not
	// leave oversized types behind.
	f.shrink()
	return f
}

// consolidateIndexThreshold is the fleet size above which consolidate
// switches from the linear target scan to the vmIndex FitTree. Below it
// the scan's cache behavior wins; above it the O(log n) query does. The
// two paths pick byte-identical targets (TestConsolidatePathsAgree
// forces each in turn). A var only so that test can pin it.
var consolidateIndexThreshold = 24

// consolidate tries to eliminate or lighten VMs: candidates are visited
// most-wasted first, and each of their containers — smallest first — is
// relocated into the most-wasted *other* VM that fits (the paper's
// "moving containers to the VMs that have the most wasted resources,
// smallest containers first"). A candidate whose containers cannot all
// be rehomed is left untouched. Reports whether anything moved.
func (f *fleet) consolidate() bool {
	sc := f.sc()
	// Sort keys are computed once per VM, not twice per comparison.
	order, wastes := sc.order[:0], sc.wastes[:0]
	for i, v := range f.vms {
		order = append(order, i)
		wastes = append(wastes, v.waste(f.catalog))
	}
	sc.order, sc.wastes = order, wastes
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case wastes[a] > wastes[b]:
			return -1
		case wastes[a] < wastes[b]:
			return 1
		}
		return 0
	})

	// Above the threshold, index every VM by (waste desc, position asc)
	// so each target query is a pruned tree descent instead of a fleet
	// scan. The index is refreshed on every mutation, so its frozen free
	// capacities always equal the scan's live ones.
	var ix *vmIndex
	if len(f.vms) >= consolidateIndexThreshold {
		ix = &sc.vmix
		ix.reset(f.catalog, len(f.vms))
		ix.buildSorted(f, order, wastes)
	}

	moved := false
	for _, vi := range order {
		src := f.vms[vi]
		if len(src.items) == 0 {
			continue
		}
		if ix != nil {
			// Exclude src as a target for its own containers.
			ix.remove(vi)
		}
		// Fail fast: if the largest container fits no target before any
		// tentative move, the attempt cannot succeed — target capacity
		// only shrinks as the smaller containers are placed — so the
		// place-then-revert dance would end exactly here anyway. The
		// largest-by-size item is found by scan so the copy + sort below
		// is only paid for attempts that can get past this check.
		largest := src.items[0]
		for _, it := range src.items[1:] {
			if it.CPU+it.Mem > largest.CPU+largest.Mem {
				largest = it
			}
		}
		fits := false
		if ix != nil {
			fits = ix.tree.FirstFit(largest.CPU, largest.Mem, 0, -1) != nil
		} else {
			for _, t := range f.vms {
				if t != src && t.freeCPU(f.catalog) >= largest.CPU && t.freeMem(f.catalog) >= largest.Mem {
					fits = true
					break
				}
			}
		}
		if !fits {
			if ix != nil {
				ix.add(src, vi, src.waste(f.catalog))
			}
			continue
		}
		// Tentatively rehome every container, smallest first.
		items := append(sc.items[:0], src.items...)
		sc.items = items
		sortItemsBySize(items, false)
		plan := sc.plan[:0]
		ok := true
		for _, it := range items {
			var best *vm
			ord := -1
			if ix != nil {
				if n := ix.tree.FirstFit(it.CPU, it.Mem, 0, -1); n != nil {
					best, ord = f.vms[n.Ord], n.Ord
				}
			} else {
				for ti, t := range f.vms {
					if t == src {
						continue
					}
					if t.freeCPU(f.catalog) >= it.CPU && t.freeMem(f.catalog) >= it.Mem {
						if best == nil || t.waste(f.catalog) > best.waste(f.catalog) {
							best, ord = t, ti
						}
					}
				}
			}
			if best == nil {
				ok = false
				break
			}
			best.place(it)
			if ix != nil {
				ix.refresh(best, ord, best.waste(f.catalog))
			}
			plan = append(plan, consMove{target: best, ord: ord, it: it})
		}
		sc.plan = plan[:0]
		if !ok {
			// Revert tentative placements.
			for _, p := range plan {
				for i := range p.target.items {
					if p.target.items[i] == p.it {
						p.target.remove(i)
						break
					}
				}
				if ix != nil {
					ix.refresh(p.target, p.ord, p.target.waste(f.catalog))
				}
			}
			if ix != nil {
				// src is unchanged; restore it as a target.
				ix.add(src, vi, src.waste(f.catalog))
			}
			continue
		}
		// Truncate rather than nil: the emptied VM is now the most-wasted
		// machine in the fleet, i.e. the prime target for every later
		// candidate's containers, and keeping its slice capacity lets
		// those moves append in place instead of reallocating.
		src.items = src.items[:0]
		src.usedCPU, src.usedMem = 0, 0
		if ix != nil {
			// Emptied: back in the index at full waste — later candidates
			// may consolidate into it, exactly as the scan would.
			ix.add(src, vi, src.waste(f.catalog))
		}
		moved = true
	}
	return moved
}
