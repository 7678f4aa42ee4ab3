package cloudsim

import (
	"fmt"
	"sort"
	"strings"
)

// The packing cache: churn in a cluster lifecycle run repeatedly
// re-optimizes near-identical sub-fleets (a pod departs, its
// neighborhood re-packs, the same neighborhood comes back a few passes
// later), so optimizer sub-solutions are memoizable. The cache maps the
// canonical form of a candidate group — VMs and items sorted into a
// content-determined total order — to the improved placement
// OptimizeHostlo produced for it.
//
// Correctness rests on two properties:
//
//   - The key is derived from the commutative VMSig multiset of the
//     group, but a hit is only declared after an exact item-by-item
//     comparison of the stored canonical input against the probe — a
//     hash collision can never smuggle in the wrong placement.
//
//   - Callers canonicalize the group before consulting the cache
//     (CanonicalizePlacement), which makes the optimizer's output a
//     pure function of the group's content rather than its discovery
//     order. That is what lets a memoized result substitute for a
//     fresh OptimizeHostlo call byte for byte, which is why a world's
//     placements do not depend on what its cache holds.
//
// The cache is deliberately not safe for concurrent use: each cluster
// world owns one (parallel population fan-outs and shard worlds never
// share), and a world's optimize pass probes and installs on the
// world's own goroutine, every Get before every Put, so LRU order stays
// deterministic.

// CanonicalizePlacement sorts a placement into its canonical order, in
// place: items within each VM by (Pod, CPU, Mem), then VMs by content
// (type, item count, lexicographic items). Two groups holding the same
// VM multiset canonicalize to the same sequence regardless of the
// order churn discovered them in.
func CanonicalizePlacement(vms []PlacedVM) {
	for _, pv := range vms {
		sortItemsCanonical(pv.Items)
	}
	sort.Slice(vms, func(a, b int) bool { return cmpPlacedVM(vms[a], vms[b]) < 0 })
}

// sortItemsCanonical orders items by (Pod, CPU, Mem) — an insertion
// sort, because candidate-node item lists are short and this must not
// allocate.
func sortItemsCanonical(items []PlacedItem) {
	for i := 1; i < len(items); i++ {
		it := items[i]
		j := i - 1
		for j >= 0 && cmpPlacedItem(items[j], it) > 0 {
			items[j+1] = items[j]
			j--
		}
		items[j+1] = it
	}
}

// cmpPlacedItem is the canonical item order: (Pod, CPU, Mem).
func cmpPlacedItem(a, b PlacedItem) int {
	if c := strings.Compare(a.Pod, b.Pod); c != 0 {
		return c
	}
	switch {
	case a.CPU < b.CPU:
		return -1
	case a.CPU > b.CPU:
		return 1
	}
	switch {
	case a.Mem < b.Mem:
		return -1
	case a.Mem > b.Mem:
		return 1
	}
	return 0
}

// cmpPlacedVM is the canonical VM order: (Type, item count,
// lexicographic canonical items). VMs that compare equal are
// content-identical, so their relative order is immaterial.
func cmpPlacedVM(a, b PlacedVM) int {
	if a.Type != b.Type {
		if a.Type < b.Type {
			return -1
		}
		return 1
	}
	if len(a.Items) != len(b.Items) {
		if len(a.Items) < len(b.Items) {
			return -1
		}
		return 1
	}
	for i := range a.Items {
		if c := cmpPlacedItem(a.Items[i], b.Items[i]); c != 0 {
			return c
		}
	}
	return 0
}

// packKey is the cache key: the group's VM and item counts plus a
// commutative 128-bit fold of the per-VM signatures. Commutativity
// makes the key a pure function of the group multiset; exact-input
// verification on lookup covers the residual collision risk.
type packKey struct {
	vms, items int
	a, b       uint64
}

// GroupKey digests a candidate group.
func GroupKey(vms []PlacedVM) packKey {
	k := packKey{vms: len(vms)}
	for _, pv := range vms {
		s := VMSigOf(pv.Type, pv.Items)
		h := mix64(s.A ^ mix64(s.B) ^ uint64(s.Type)<<32 ^ uint64(s.Count))
		k.a += h
		k.b += mix64(h)
		k.items += s.Count
	}
	return k
}

// packEntry is one cached sub-solution on the LRU list.
type packEntry struct {
	key        packKey
	input      []PlacedVM // canonical group, deep-copied (verification)
	output     []PlacedVM // OptimizeHostlo(input) — treated as read-only
	prev, next *packEntry
}

// PackCacheCap bounds every packing cache. Misses are compulsory
// (distinct group contents), not evictions: a 256× larger cache
// reproduced the same miss count, so the bound is a constant. It is a
// bound, not a reservation: a cache's map grows with its entries, since
// most worlds (every Kubernetes one) never optimize and many Hostlo
// worlds fill a small fraction of it.
const PackCacheCap = 4096

// PackCache is a bounded LRU of Hostlo packing sub-solutions. The zero
// value is not usable; NewPackCache builds one.
type PackCache struct {
	cap        int
	m          map[packKey]*packEntry
	head, tail *packEntry // head = most recently used
}

// NewPackCache returns an empty cache bounded to PackCacheCap entries.
func NewPackCache() *PackCache { return newPackCache(PackCacheCap) }

// newPackCache returns an empty cache bounded to capacity entries.
func newPackCache(capacity int) *PackCache {
	return &PackCache{cap: capacity, m: make(map[packKey]*packEntry)}
}

// Get returns the memoized improved placement for a canonical group,
// verifying the stored input matches exactly. The returned slice is
// owned by the cache: callers must treat it as read-only.
func (pc *PackCache) Get(group []PlacedVM) ([]PlacedVM, bool) {
	e := pc.m[GroupKey(group)]
	if e == nil || !equalPlacement(e.input, group) {
		return nil, false
	}
	pc.moveToFront(e)
	return e.output, true
}

// Put installs the improved placement for a canonical group, deep-
// copying the group (whose backing arrays the caller reuses) and taking
// ownership of improved. Re-installing an existing key refreshes it.
func (pc *PackCache) Put(group, improved []PlacedVM) {
	key := GroupKey(group)
	if e := pc.m[key]; e != nil {
		e.input = copyPlacement(group)
		e.output = improved
		pc.moveToFront(e)
		return
	}
	if len(pc.m) >= pc.cap {
		lru := pc.tail
		pc.unlink(lru)
		delete(pc.m, lru.key)
		// A restored entry lives in a shared arena: drop its slices so
		// the arena does not pin an evicted placement.
		lru.input, lru.output = nil, nil
	}
	e := &packEntry{key: key, input: copyPlacement(group), output: improved}
	pc.m[key] = e
	pc.pushFront(e)
}

// PackCacheEntry is one exported cache entry. Input and Output are the
// cache-owned slices, immutable once installed (Put replaces the entry's
// slice headers, never the backing arrays), so a snapshot and any number
// of clones can share them copy-on-write. The entry also carries its
// key, GroupKey(Input), filled by State or NewPackCacheState, so a
// restore never re-hashes its input.
type PackCacheEntry struct {
	Input  []PlacedVM
	Output []PlacedVM
	key    packKey
}

// PackCacheState is the complete state of a PackCache: its entries in
// recency order (most recently used first). It is the snapshot form —
// RestorePackCache rebuilds an identical cache, and because the entry
// slices are immutable the state can share them with a live cache.
type PackCacheState struct {
	Entries []PackCacheEntry
}

// NewPackCacheState assembles a state from decoded parts, keying every
// entry once, here. The state takes ownership of entries. A decoder
// builds the state before anyone shares it, so no shared snapshot is
// ever keyed lazily under concurrent restores.
func NewPackCacheState(entries []PackCacheEntry) *PackCacheState {
	for i := range entries {
		entries[i].key = GroupKey(entries[i].Input)
	}
	return &PackCacheState{Entries: entries}
}

// State captures the cache. The entry slices are shared, not copied:
// they are immutable by the cache's ownership contract, so the state
// stays valid while the live cache keeps mutating its map and LRU
// order.
func (pc *PackCache) State() *PackCacheState {
	st := &PackCacheState{Entries: make([]PackCacheEntry, 0, len(pc.m))}
	for e := pc.head; e != nil; e = e.next {
		st.Entries = append(st.Entries, PackCacheEntry{Input: e.input, Output: e.output, key: e.key})
	}
	return st
}

// RestorePackCache rebuilds a cache from a captured state, sharing the
// entry slices copy-on-write (the cache never mutates installed slices,
// so N restored branches and the original can all hold the same
// backing arrays). It hashes nothing: the keys travel with the state,
// and the entries come from one arena. A nil state restores an empty
// cache; a state holding more than PackCacheCap entries is refused.
func RestorePackCache(st *PackCacheState) (*PackCache, error) {
	if st == nil {
		return NewPackCache(), nil
	}
	if len(st.Entries) > PackCacheCap {
		return nil, fmt.Errorf("cloudsim: pack cache state holds %d entries, capacity %d", len(st.Entries), PackCacheCap)
	}
	pc := &PackCache{cap: PackCacheCap, m: make(map[packKey]*packEntry, len(st.Entries))}
	// Entries are in recency order; pushing front from the least recent
	// end reproduces the LRU list exactly.
	arena := make([]packEntry, len(st.Entries))
	for i := len(st.Entries) - 1; i >= 0; i-- {
		se := &st.Entries[i]
		// A keyed entry's key counts its input's VMs. An entry nobody
		// keyed holds the zero key, which is right only for an empty
		// input.
		if se.key.vms != len(se.Input) {
			return nil, fmt.Errorf("cloudsim: pack cache state entry %d is not keyed", i)
		}
		if _, dup := pc.m[se.key]; dup {
			return nil, fmt.Errorf("cloudsim: pack cache state has duplicate key (entry %d)", i)
		}
		e := &arena[i]
		*e = packEntry{key: se.key, input: se.Input, output: se.Output}
		pc.m[se.key] = e
		pc.pushFront(e)
	}
	return pc, nil
}

func (pc *PackCache) pushFront(e *packEntry) {
	e.prev = nil
	e.next = pc.head
	if pc.head != nil {
		pc.head.prev = e
	}
	pc.head = e
	if pc.tail == nil {
		pc.tail = e
	}
}

func (pc *PackCache) unlink(e *packEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		pc.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		pc.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (pc *PackCache) moveToFront(e *packEntry) {
	if pc.head == e {
		return
	}
	pc.unlink(e)
	pc.pushFront(e)
}

// equalPlacement reports exact structural equality of two placements.
func equalPlacement(a, b []PlacedVM) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		av, bv := a[i], b[i]
		if av.Type != bv.Type || len(av.Items) != len(bv.Items) {
			return false
		}
		for j := range av.Items {
			if av.Items[j] != bv.Items[j] {
				return false
			}
		}
	}
	return true
}

// copyPlacement deep-copies a placement (one flat item arena, so a
// cached input is two allocations regardless of VM count).
func copyPlacement(vms []PlacedVM) []PlacedVM {
	total := 0
	for _, pv := range vms {
		total += len(pv.Items)
	}
	arena := make([]PlacedItem, 0, total)
	out := make([]PlacedVM, len(vms))
	for i, pv := range vms {
		start := len(arena)
		arena = append(arena, pv.Items...)
		out[i] = PlacedVM{Type: pv.Type, Items: arena[start:len(arena):len(arena)]}
	}
	return out
}
