package cloudsim

import (
	"math"
)

// This file is the exported face of the packing machinery, consumed by
// internal/cluster: the lifecycle simulator keeps live per-node state,
// but its placement decisions must be *the same code* as the static
// Fig. 9 pricing — that is what makes a no-churn cluster run converge
// to the static packing exactly, not merely approximately.

// PlacedItem is one placed container, labeled with its owning pod.
type PlacedItem struct {
	Pod      string
	CPU, Mem float64
}

// PlacedVM is one VM (an index into the catalog) with its contents.
type PlacedVM struct {
	Type  int
	Items []PlacedItem
}

// CheapestFitting returns the index of the cheapest catalog type able
// to host (cpu, mem), or -1 when the request exceeds every machine.
func CheapestFitting(catalog []VMType, cpu, mem float64) int {
	return cheapestFitting(catalog, cpu, mem)
}

// MostRequestedFraction is the §5.3.1 "most requested" score of a VM
// with the given load: the mean of its used CPU and memory fractions.
func MostRequestedFraction(t VMType, usedCPU, usedMem float64) float64 {
	return (usedCPU/t.RelCPU + usedMem/t.RelMem) / 2
}

// toFleet converts an exported placement into the internal fleet form,
// preserving VM order and item order — the optimizer's passes use
// stable sorts, so order is part of its determinism contract.
// Like fleet.clone, the conversion builds into two arenas (vm structs,
// one flat full-capacity-sliced item store): the lifecycle optimizer
// runs this per candidate group, millions of times at trace scale. The
// used sums accumulate in item order, exactly as the old per-item
// place() calls did, so the floats come out bit-identical.
func toFleet(vms []PlacedVM, catalog []VMType) *fleet {
	total := 0
	for i := range vms {
		total += len(vms[i].Items)
	}
	f := &fleet{catalog: catalog, vms: make([]*vm, len(vms))}
	varena := make([]vm, len(vms))
	iarena := make([]item, 0, total)
	for i := range vms {
		pv := &vms[i]
		v := &varena[i]
		v.typ = pv.Type
		is := len(iarena)
		for _, it := range pv.Items {
			iarena = append(iarena, item{pod: it.Pod, cpu: it.CPU, mem: it.Mem})
			v.usedCPU += it.CPU
			v.usedMem += it.Mem
		}
		v.items = iarena[is:len(iarena):len(iarena)]
		f.vms[i] = v
	}
	return f
}

// fromFleet converts back, preserving order, into one flat item arena
// (full-capacity sub-slices keep any later append from clobbering a
// neighbor).
func fromFleet(f *fleet) []PlacedVM {
	total := 0
	for _, v := range f.vms {
		total += len(v.items)
	}
	out := make([]PlacedVM, 0, len(f.vms))
	arena := make([]PlacedItem, 0, total)
	for _, v := range f.vms {
		is := len(arena)
		for _, it := range v.items {
			arena = append(arena, PlacedItem{Pod: it.pod, CPU: it.cpu, Mem: it.mem})
		}
		out = append(out, PlacedVM{Type: v.typ, Items: arena[is:len(arena):len(arena)]})
	}
	return out
}

// OptimizeHostlo runs the paper's step-4 optimizer (consolidate + split
// + shrink passes, cost-monotone: the result never costs more than the
// input) over an existing placement and returns the improved one.
// Conversion preserves VM and item order, so feeding it the placement a
// whole-pod pass produced yields exactly the fleet improveHostlo would
// have produced in the static pipeline.
func OptimizeHostlo(vms []PlacedVM, catalog []VMType) []PlacedVM {
	if len(vms) == 0 {
		return nil
	}
	f := toFleet(vms, catalog)
	// Check a recycled scratch out of the pool for this call's private
	// fleet chain; everything the optimizer built aliases it, so it
	// goes back only after fromFleet has copied the result out.
	sc := scratchPool.Get().(*optScratch)
	f.scratch = sc
	out := fromFleet(improveHostlo(f))
	scratchPool.Put(sc)
	return out
}

// VMSig is the canonical content digest of one placed VM in comparable
// struct form: catalog type, item count and an order-independent
// 128-bit hash of the item multiset (two independent accumulators over
// per-item hashes; summing makes the digest invariant under item order,
// which is what "same machine" means). The cluster simulator's
// incremental reconciliation uses it as a map key to match optimizer
// output back onto existing nodes — a VM whose signature survives a
// pass is the same machine, so its cost clock keeps running — and the
// packing cache folds it into group keys. This is the reconciliation
// hot path: a comparable struct costs no allocation at all, where even
// raw-bit string formatting allocated per call.
type VMSig struct {
	Type  int
	Count int
	A, B  uint64
}

// VMSigOf digests one placed VM (see VMSig).
func VMSigOf(typ int, items []PlacedItem) VMSig {
	var a, b uint64
	for _, it := range items {
		h := itemHash(it)
		a += h
		b += mix64(h)
	}
	return VMSig{Type: typ, Count: len(items), A: a, B: b}
}

// itemHash folds one item through splitmix64: the pod name's length
// (which keeps names differing only in trailing zero bytes apart), the
// name a little-endian word at a time with the tail zero-padded, then
// the raw bits of its requests — exact float identity, no decimal
// rounding. The values only key in-memory maps (the reconciler's
// signature match, the packing cache) that are never iterated, printed
// or digested, so the hash can change without moving recorded output.
func itemHash(it PlacedItem) uint64 {
	s := it.Pod
	h := mix64(uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		h = mix64(h ^ le64(s))
	}
	// The tail in overlapping reads: two cover 4–7 bytes, three cover
	// 1–3. A byte read twice lands on its own position both times, so
	// the OR is the zero-padded word; a byte loop measured ~30% slower
	// on trace pod names, which are 7–9 bytes long.
	var tail uint64
	switch r := len(s); {
	case r >= 4:
		tail = le32(s) | le32(s[r-4:])<<(8*(r-4))
	case r > 0:
		tail = uint64(s[0]) | uint64(s[r/2])<<(8*(r/2)) | uint64(s[r-1])<<(8*(r-1))
	}
	h = mix64(h ^ tail)
	h = mix64(h ^ math.Float64bits(it.CPU))
	return mix64(h ^ math.Float64bits(it.Mem))
}

// le64 reads s[0:8] as a little-endian word (one load once compiled).
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// le32 reads s[0:4] as a little-endian word.
func le32(s string) uint64 {
	_ = s[3]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24
}

// PlacementCostPerH prices a placement per hour (sequential sum in VM
// order, matching the internal fleet costing exactly).
func PlacementCostPerH(vms []PlacedVM, catalog []VMType) float64 {
	var c float64
	for _, v := range vms {
		c += catalog[v.Type].PricePerH
	}
	return c
}
