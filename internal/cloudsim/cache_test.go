package cloudsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randGroup builds a random canonical candidate group: VMs of one
// catalog type filled with random small containers, the shape
// optimizeGroups hands to the cache.
func randGroup(r *rand.Rand, tag string) []PlacedVM {
	cat := Catalog()
	typ := r.Intn(len(cat))
	var vms []PlacedVM
	for v, nv := 0, 1+r.Intn(4); v < nv; v++ {
		var items []PlacedItem
		for i, ni := 0, r.Intn(5); i < ni; i++ {
			items = append(items, PlacedItem{
				Pod: fmt.Sprintf("%s-p%d-%d", tag, v, i),
				CPU: float64(1+r.Intn(8)) / 40,
				Mem: float64(1+r.Intn(8)) / 40,
			})
		}
		vms = append(vms, PlacedVM{Type: typ, Items: items})
	}
	CanonicalizePlacement(vms)
	return vms
}

// shuffled deep-copies a group with VM and item order permuted — the
// same multiset as churn would rediscover it in a different order.
func shuffled(r *rand.Rand, vms []PlacedVM) []PlacedVM {
	out := copyPlacement(vms)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for _, pv := range out {
		r.Shuffle(len(pv.Items), func(i, j int) { pv.Items[i], pv.Items[j] = pv.Items[j], pv.Items[i] })
	}
	return out
}

// TestCanonicalizePlacementOrderInvariant: any permutation of the same
// VM/item multiset canonicalizes to the identical sequence — the
// property that makes the cache key content-addressed.
func TestCanonicalizePlacementOrderInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		g := randGroup(r, fmt.Sprintf("t%d", trial))
		p := shuffled(r, g)
		CanonicalizePlacement(p)
		// equalPlacement, not DeepEqual: copyPlacement turns a nil item
		// list into an empty one, which is the same placement.
		if !equalPlacement(g, p) {
			t.Fatalf("trial %d: canonical forms differ:\n%v\nvs\n%v", trial, g, p)
		}
		if GroupKey(g) != GroupKey(p) {
			t.Fatalf("trial %d: keys differ for identical canonical groups", trial)
		}
	}
}

// TestPackCacheHitMatchesFresh is the memoization property the whole
// cache rests on: for a canonicalized group, a cache hit returns
// exactly what a fresh OptimizeHostlo call on the probe would — even
// when the probe was discovered in a different order.
func TestPackCacheHitMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pc := newPackCache(64)
	for trial := 0; trial < 100; trial++ {
		g := randGroup(r, fmt.Sprintf("h%d", trial))
		out := OptimizeHostlo(g, Catalog())
		pc.Put(g, out)
		probe := shuffled(r, g)
		CanonicalizePlacement(probe)
		cached, ok := pc.Get(probe)
		if !ok {
			t.Fatalf("trial %d: canonical probe missed", trial)
		}
		fresh := OptimizeHostlo(probe, Catalog())
		if !reflect.DeepEqual(cached, fresh) {
			t.Fatalf("trial %d: cached placement differs from fresh optimize:\n%v\nvs\n%v",
				trial, cached, fresh)
		}
	}
}

// TestPackCacheLRUEviction pins the bounded-LRU discipline: capacity is
// a hard bound, the least recently used entry is the one evicted, and
// Get refreshes recency.
func TestPackCacheLRUEviction(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	pc := newPackCache(2)
	a := randGroup(r, "a")
	b := randGroup(r, "b")
	c := randGroup(r, "c")
	pc.Put(a, OptimizeHostlo(a, Catalog()))
	pc.Put(b, OptimizeHostlo(b, Catalog()))
	// Touch a so b becomes the LRU entry.
	if _, ok := pc.Get(a); !ok {
		t.Fatal("a missing before eviction")
	}
	pc.Put(c, OptimizeHostlo(c, Catalog()))
	if len(pc.m) != 2 {
		t.Fatalf("len %d after eviction, want 2", len(pc.m))
	}
	if _, ok := pc.Get(b); ok {
		t.Fatal("b survived — LRU should have evicted it")
	}
	if _, ok := pc.Get(a); !ok {
		t.Fatal("a evicted despite being recently used")
	}
	if _, ok := pc.Get(c); !ok {
		t.Fatal("c missing right after install")
	}
}

// TestPackCacheCollisionVerify pins the exact-input check: even when
// the 128-bit key matches, a probe whose content differs from the
// stored input must miss — a hash collision can never smuggle in the
// wrong placement. The collision is forged by installing an entry
// under the probe's key with different content.
func TestPackCacheCollisionVerify(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	pc := newPackCache(4)
	stored := randGroup(r, "x")
	probe := copyPlacement(stored)
	// Perturb the probe's content without changing counts, then forge
	// the collision: map the probe's key to the stored entry.
	probe[0].Items = append(probe[0].Items, PlacedItem{Pod: "ghost", CPU: 0.05, Mem: 0.05})
	CanonicalizePlacement(probe)
	e := &packEntry{key: GroupKey(probe), input: copyPlacement(stored), output: nil}
	pc.m[e.key] = e
	pc.pushFront(e)
	if _, ok := pc.Get(probe); ok {
		t.Fatal("colliding probe hit — exact-input verification is broken")
	}
}

// TestPackCachePutRefresh: re-installing an existing key replaces the
// entry in place without growing the cache.
func TestPackCachePutRefresh(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	pc := newPackCache(4)
	g := randGroup(r, "r")
	out1 := OptimizeHostlo(g, Catalog())
	pc.Put(g, out1)
	pc.Put(g, out1)
	if len(pc.m) != 1 {
		t.Fatalf("len %d after double install, want 1", len(pc.m))
	}
}

// TestNewPackCacheIsEmpty: a new cache and one restored from a nil
// state are the same empty cache, bounded to the constant capacity,
// and a probe misses until the group is installed.
func TestNewPackCacheIsEmpty(t *testing.T) {
	restored, err := RestorePackCache(nil)
	if err != nil {
		t.Fatalf("RestorePackCache(nil): %v", err)
	}
	g := randGroup(rand.New(rand.NewSource(19)), "n")
	for name, pc := range map[string]*PackCache{"new": NewPackCache(), "restored": restored} {
		if pc.cap != PackCacheCap || len(pc.m) != 0 || len(pc.State().Entries) != 0 {
			t.Fatalf("%s: capacity %d with %d entries, want %d and none", name, pc.cap, len(pc.m), PackCacheCap)
		}
		if _, ok := pc.Get(g); ok {
			t.Fatalf("%s: empty cache hit", name)
		}
		pc.Put(g, OptimizeHostlo(g, Catalog()))
		if _, ok := pc.Get(g); !ok {
			t.Fatalf("%s: installed group missed", name)
		}
	}
}

// sig is VMSigOf for a one-item VM.
func sig(pod string, cpu, mem float64) VMSig {
	return VMSigOf(0, []PlacedItem{{Pod: pod, CPU: cpu, Mem: mem}})
}

// TestVMSigOfPermutationInvariant: the signature is a function of the
// item multiset, so any reordering of a VM's items keeps it.
func TestVMSigOfPermutationInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		for _, pv := range randGroup(r, fmt.Sprintf("s%d", trial)) {
			want := VMSigOf(pv.Type, pv.Items)
			items := append([]PlacedItem(nil), pv.Items...)
			r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
			if got := VMSigOf(pv.Type, items); got != want {
				t.Fatalf("trial %d: permuted items changed the signature: %+v vs %+v", trial, got, want)
			}
		}
	}
}

// TestVMSigOfSeparatesNames: pod names that differ only in their length
// (a trailing zero byte, which the zero-padded tail alone would not
// see) or in any single byte all get distinct signatures. Lengths run
// 0–17, across every tail size (the hash reads 1–3 and 4–7 byte tails
// differently) and both sides of each 8-byte word boundary, including
// "p" vs "p\x00" and the 7-, 8-, 9- and 16-byte names.
func TestVMSigOfSeparatesNames(t *testing.T) {
	const letters = "abcdefghijklmnopq"
	var names []string
	for n := 0; n <= len(letters); n++ {
		base := letters[:n]
		names = append(names, base, base+"\x00", base+"\x00\x00")
		for i := 0; i < n; i++ {
			for _, c := range []string{"Z", "\x00"} {
				names = append(names, base[:i]+c+base[i+1:])
			}
		}
	}
	names = append(names, "p", "p\x00")
	slices.Sort(names)
	names = slices.Compact(names) // "abc\x00" arises both as a flip and as a padding
	seen := map[VMSig]string{}
	for _, name := range names {
		s := sig(name, 0.25, 0.5)
		if prev, dup := seen[s]; dup {
			t.Fatalf("names %q and %q share a signature", prev, name)
		}
		seen[s] = name
	}
}

// TestItemHashWords checks itemHash's overlapping word reads against
// the definition they implement, a byte-at-a-time fold of each 8-byte
// word and of the zero-padded tail, for random names of every length
// from 0 to 24.
func TestItemHashWords(t *testing.T) {
	ref := func(it PlacedItem) uint64 {
		h := mix64(uint64(len(it.Pod)))
		var w uint64
		for i := 0; i < len(it.Pod); i++ {
			w |= uint64(it.Pod[i]) << (8 * (i % 8))
			if i%8 == 7 {
				h, w = mix64(h^w), 0
			}
		}
		h = mix64(h ^ w)
		h = mix64(h ^ math.Float64bits(it.CPU))
		return mix64(h ^ math.Float64bits(it.Mem))
	}
	r := rand.New(rand.NewSource(37))
	for n := 0; n <= 24; n++ {
		for trial := 0; trial < 20; trial++ {
			b := make([]byte, n)
			r.Read(b)
			it := PlacedItem{Pod: string(b), CPU: r.Float64(), Mem: r.Float64()}
			if got, want := itemHash(it), ref(it); got != want {
				t.Fatalf("name %q: itemHash %#x, byte-wise fold %#x", it.Pod, got, want)
			}
		}
	}
}

// TestVMSigOfSeparatesRequests: a one-bit flip anywhere in the CPU or
// memory request changes the signature (the hash reads the raw bits).
func TestVMSigOfSeparatesRequests(t *testing.T) {
	const pod, cpu, mem = "u12-p3", 0.375, 0.625
	want := sig(pod, cpu, mem)
	flip := func(f float64, bit int) float64 { return math.Float64frombits(math.Float64bits(f) ^ 1<<bit) }
	for bit := 0; bit < 64; bit++ {
		if sig(pod, flip(cpu, bit), mem) == want {
			t.Fatalf("flipping CPU bit %d kept the signature", bit)
		}
		if sig(pod, cpu, flip(mem, bit)) == want {
			t.Fatalf("flipping Mem bit %d kept the signature", bit)
		}
	}
	if sig(pod, mem, cpu) == want {
		t.Fatal("swapping CPU and Mem kept the signature")
	}
}

// samePackState reports whether two states hold the same entries
// (content and key) in the same recency order.
func samePackState(a, b *PackCacheState) bool {
	if len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		ea, eb := a.Entries[i], b.Entries[i]
		if ea.key != eb.key || !equalPlacement(ea.Input, eb.Input) || !equalPlacement(ea.Output, eb.Output) {
			return false
		}
	}
	return true
}

// TestRestoredPackCacheKeys: a cache restored from carried keys is the
// live cache. Two states are restored — the captured one (keys copied
// from the live entries) and one assembled the way the snapshot decoder
// assembles it (fresh copies of every slice, keyed once by
// NewPackCacheState). Each must list every entry under GroupKey(input),
// restore to a cache whose State equals the live cache's, and then
// answer the same probe sequence with the same hits, misses and outputs.
func TestRestoredPackCacheKeys(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	live := newPackCache(16)
	var groups [][]PlacedVM
	for i := 0; i < 40; i++ { // past capacity: evictions happen
		g := randGroup(r, fmt.Sprintf("k%d", i))
		groups = append(groups, g)
		live.Put(g, OptimizeHostlo(g, Catalog()))
		if r.Intn(3) == 0 { // shuffle recency
			live.Get(groups[r.Intn(len(groups))])
		}
	}
	captured := live.State()
	var copies []PackCacheEntry
	for _, e := range captured.Entries {
		copies = append(copies, PackCacheEntry{Input: copyPlacement(e.Input), Output: copyPlacement(e.Output)})
	}
	decoded := NewPackCacheState(copies)

	var probes [][]PlacedVM
	for i := 0; i < 120; i++ {
		probes = append(probes, groups[r.Intn(len(groups))])
	}
	probes = append(probes, randGroup(r, "fresh"))

	states := map[string]*PackCacheState{"captured": captured, "decoded": decoded}
	restored := map[string]*PackCache{}
	for name, st := range states {
		for i, e := range st.Entries {
			if e.key != GroupKey(e.Input) {
				t.Fatalf("%s: entry %d carries key %+v, GroupKey gives %+v", name, i, e.key, GroupKey(e.Input))
			}
		}
		pc, err := RestorePackCache(st)
		if err != nil {
			t.Fatalf("%s: RestorePackCache: %v", name, err)
		}
		if !samePackState(pc.State(), captured) {
			t.Fatalf("%s: restored state differs from the live cache's", name)
		}
		restored[name] = pc
	}
	hits := 0
	for i, g := range probes {
		want, wantOK := live.Get(g)
		if wantOK {
			hits++
		}
		for name, pc := range restored {
			if got, ok := pc.Get(g); ok != wantOK || !equalPlacement(got, want) {
				t.Fatalf("%s: probe %d: hit %v, live cache hit %v", name, i, ok, wantOK)
			}
		}
	}
	for name, pc := range restored {
		if !samePackState(pc.State(), live.State()) {
			t.Fatalf("%s: state after the probes differs from the live cache's", name)
		}
	}
	if hits == 0 || hits == len(probes) {
		t.Fatalf("probes scored %d hits and %d misses; want both", hits, len(probes)-hits)
	}
}

// TestRestorePackCacheRejectsUnkeyed: a state whose entries were never
// keyed (built by hand rather than by State or NewPackCacheState) is
// refused instead of restoring a cache that could never hit.
func TestRestorePackCacheRejectsUnkeyed(t *testing.T) {
	g := randGroup(rand.New(rand.NewSource(31)), "u")
	st := &PackCacheState{Entries: []PackCacheEntry{{Input: g, Output: g}}}
	if _, err := RestorePackCache(st); err == nil {
		t.Fatal("unkeyed state restored")
	}
}

// TestRestorePackCacheRejectsOverfull: a state holding more entries
// than the cache capacity (only a hostile snapshot can) is refused,
// while one holding exactly the capacity restores.
func TestRestorePackCacheRejectsOverfull(t *testing.T) {
	entries := make([]PackCacheEntry, PackCacheCap+1)
	for i := range entries {
		g := []PlacedVM{{Items: []PlacedItem{{Pod: fmt.Sprintf("o%d", i), CPU: 0.1, Mem: 0.1}}}}
		entries[i] = PackCacheEntry{Input: g, Output: g}
	}
	if _, err := RestorePackCache(NewPackCacheState(entries)); err == nil {
		t.Fatalf("state with %d entries restored, capacity %d", len(entries), PackCacheCap)
	}
	pc, err := RestorePackCache(NewPackCacheState(entries[:PackCacheCap]))
	if err != nil || len(pc.m) != PackCacheCap {
		t.Fatalf("full state: %v", err)
	}
}
