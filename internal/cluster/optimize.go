package cluster

import (
	"slices"

	"nestless/internal/cloudsim"
)

// Hostlo re-optimisation. The paper's step-4 optimizer
// (cloudsim.OptimizeHostlo: consolidate / split / shrink, cost-monotone)
// is expensive over a big fleet, and churn dirties only a few nodes
// between passes. The incremental policy therefore re-packs just the
// dirty set — nodes whose contents changed since the last pass — plus a
// bounded neighborhood of consolidation targets (the emptiest live
// nodes by most-requested score), falling back to a full-fleet pass
// when, and only when, the dirty fraction exceeds repackDirtyFrac.
// Candidate selection is deterministic: the neighborhood comes from
// tail-walks of the capacity index, ties broken by node id.
//
// Incremental passes are additionally partitioned, canonicalized and
// memoized (see optimizeGroups): candidates split into disjoint
// per-catalog-type groups, each group sorted into its canonical
// content order, looked up in the per-world packing cache, and only
// the missing groups handed to cloudsim.OptimizeHostlo. Group outputs
// merge back in type order, so the improved placement is a pure
// function of the candidate content: identical with the cache on or
// off. A pass runs serially on its world's goroutine; parallelism lives
// across worlds. Full passes stay exactly the original global optimizer
// call over the whole fleet in creation order — that is what makes a
// drained no-churn cluster settle on the static packer's fleet, so
// partitioning must never apply to them.

// minNeighborhood is the floor on how many consolidation targets an
// incremental pass considers alongside the dirty set.
const minNeighborhood = 8

// repackDirtyFrac is the incremental-optimize escape hatch: when more
// than this fraction of the live fleet is dirty since the last pass,
// the optimizer falls back to a full-fleet pass.
const repackDirtyFrac = 0.25

// optimize runs the Hostlo optimizer over the candidate set and
// reconciles those nodes to the improved placement. Containers move
// between nodes (a migration the Hostlo device makes cheap — the pod's
// network identity does not change); VMs the optimizer shrank or
// emptied are retired, VMs it re-typed are replaced. Reconciliation is
// instant in the model: migration latency is not priced, only fleet
// time is.
func (c *Cluster) optimize() {
	c.dirty = false
	cand, full := c.optimizeCandidates()
	c.dirtyList = c.dirtyList[:0]
	if len(cand) == 0 {
		return
	}
	for _, n := range cand {
		n.dirty = false
	}
	c.res.OptimizerRuns++
	c.count("cluster/optimizer_runs")
	var improved []cloudsim.PlacedVM
	if full {
		c.res.OptimizerFull++
		c.count("cluster/optimizer_full_runs")
		placed := c.placedScratch[:0]
		for _, n := range cand {
			placed = append(placed, cloudsim.PlacedVM{Type: n.typ, Items: n.items})
		}
		c.placedScratch = placed
		improved = cloudsim.OptimizeHostlo(placed, c.cat)
	} else {
		improved = c.optimizeGroups(cand)
	}
	c.reconcile(cand, improved)
}

// optimizeGroups runs one incremental pass: the candidates are
// partitioned into disjoint per-catalog-type groups, each group is
// copied into the canonical arena and canonicalized, the packing cache
// is probed and misses optimized in type order, fresh solutions are
// installed in type order after every probe (interleaving Puts with
// Gets would change the LRU order, and with it the hit/miss counters
// the golden corpus pins), and the group outputs are concatenated in
// type order.
func (c *Cluster) optimizeGroups(cand []*node) []cloudsim.PlacedVM {
	types := len(c.cat)
	if cap(c.typeCount) < types {
		c.typeCount = make([]int, types)
	}
	counts := c.typeCount[:types]
	for i := range counts {
		counts[i] = 0
	}
	for _, n := range cand {
		counts[n.typ]++
	}
	// Build the canonical groups over the scratch arenas. Appends may
	// grow (and reallocate) the arenas mid-build; earlier segments keep
	// pointing into the abandoned backing array, which stays valid and
	// is never written again — the full-capacity slice expressions stop
	// any aliasing.
	placed := c.placedScratch[:0]
	items := c.itemScratch[:0]
	groups := c.groupScratch[:0]
	for typ := 0; typ < types; typ++ {
		if counts[typ] == 0 {
			continue
		}
		start := len(placed)
		for _, n := range cand {
			if n.typ != typ {
				continue
			}
			is := len(items)
			items = append(items, n.items...)
			placed = append(placed, cloudsim.PlacedVM{
				Type: typ, Items: items[is:len(items):len(items)],
			})
		}
		group := placed[start:len(placed):len(placed)]
		cloudsim.CanonicalizePlacement(group)
		groups = append(groups, group)
	}
	c.placedScratch = placed
	c.itemScratch = items
	c.groupScratch = groups

	// Probe the cache and optimize each miss, in type order; install
	// the fresh solutions only after the last probe.
	outs := c.outScratch[:0]
	miss := c.missScratch[:0]
	for gi, g := range groups {
		c.res.OptimizerGroups++
		out, ok := c.pack.Get(g)
		if !ok {
			out = cloudsim.OptimizeHostlo(g, c.cat)
			miss = append(miss, int32(gi))
		}
		outs = append(outs, out)
	}
	for _, gi := range miss {
		c.pack.Put(groups[gi], outs[gi])
	}
	c.outScratch = outs
	c.missScratch = miss
	hits := len(groups) - len(miss)
	c.res.OptimizerCacheHits += hits
	c.res.OptimizerCacheMisses += len(miss)
	if c.rec != nil {
		reg := c.rec.Metrics()
		if hits > 0 {
			reg.Counter("cluster/optimizer_cache_hits").Add(float64(hits))
		}
		if len(miss) > 0 {
			reg.Counter("cluster/optimizer_cache_misses").Add(float64(len(miss)))
		}
	}
	// Merge in type order. The cached outputs stay cache-owned and
	// read-only; reconcile copies items before mutating node state.
	improved := c.improvedScratch[:0]
	for _, out := range outs {
		improved = append(improved, out...)
	}
	c.improvedScratch = improved
	return improved
}

// optimizeCandidates picks the nodes the next pass will consider, in
// creation order, and reports whether that is the whole live fleet.
func (c *Cluster) optimizeCandidates() ([]*node, bool) {
	// Live dirty nodes (dirtyList is append-ordered; the final sort by
	// id restores creation order).
	cand := c.candScratch[:0]
	for _, n := range c.dirtyList {
		if n.live {
			cand = append(cand, n)
		} else {
			n.dirty = false
		}
	}
	if float64(len(cand)) > repackDirtyFrac*float64(c.liveCount) {
		c.compactLive()
		cand = append(cand[:0], c.liveList...)
		c.candScratch = cand
		return cand, true
	}
	k := 2 * len(cand)
	if k < minNeighborhood {
		k = minNeighborhood
	}
	cand = append(cand, c.neighborhood(k)...)
	slices.SortFunc(cand, func(a, b *node) int { return a.id - b.id })
	c.candScratch = cand
	return cand, false
}

// neighborhood returns up to k live non-dirty consolidation targets:
// the emptiest nodes by (most-requested score asc, id desc), taken in
// two stages — up to k per catalog type by a tail-walk of each type's
// tree, then k overall.
func (c *Cluster) neighborhood(k int) []*node {
	cand := c.neighScratch[:0]
	for i := range c.idx.trees {
		taken := 0
		c.idx.trees[i].RevEach(func(id int) bool {
			n := c.nodes[id]
			if n.dirty {
				return true
			}
			cand = append(cand, n)
			taken++
			return taken < k
		})
	}
	c.neighScratch = cand
	// Final overall ordering, on precomputed scores (the comparator
	// must not recompute the score per comparison — this runs on every
	// incremental pass).
	sc := c.scoredScratch[:0]
	for _, n := range cand {
		sc = append(sc, scoredNode{n: n, score: c.score(n)})
	}
	slices.SortFunc(sc, func(a, b scoredNode) int {
		switch {
		case a.score < b.score:
			return -1
		case a.score > b.score:
			return 1
		case a.n.id > b.n.id:
			return -1
		default:
			return 1
		}
	})
	c.scoredScratch = sc
	if len(sc) > k {
		sc = sc[:k]
	}
	out := cand[:0]
	for _, e := range sc {
		out = append(out, e.n)
	}
	return out
}

// reconcile maps an optimized placement onto the candidate nodes: nodes
// whose type and contents are unchanged are kept (their cost clock
// keeps running), the rest are retired and replacements created. The
// moves counter records how much the optimizer actually churned.
//
// It runs in three phases over reusable scratch. Phase 1 matches
// improved VMs onto surviving candidates by signature (FIFO among
// equals, in improved order) and detects exact no-ops — a matched node
// whose item list is bit-identical to the improved VM needs no
// re-index, no placement-map rewrite, nothing; at steady state with a
// warm packing cache that is nearly every node. Phase 2 unlinks the
// touched candidates (changed or retired) from their pods' placement
// maps. Phase 3 applies: rewrites changed nodes, creates replacements
// in improved order, retires the unmatched.
func (c *Cluster) reconcile(cand []*node, improved []cloudsim.PlacedVM) {
	now := c.eng.Now()
	// Phase 1: signature-match improved VMs to candidates.
	if c.avail == nil {
		c.avail = make(map[cloudsim.VMSig]sigChain, 64)
	} else {
		clear(c.avail)
	}
	next := c.availNext[:0]
	sigs := c.sigScratch[:0]
	for k, n := range cand {
		sig := cloudsim.VMSigOf(n.typ, n.items)
		sigs = append(sigs, sig)
		next = append(next, -1)
		if ch, ok := c.avail[sig]; ok {
			next[ch.tail] = int32(k)
			ch.tail = int32(k)
			c.avail[sig] = ch
		} else {
			c.avail[sig] = sigChain{head: int32(k), tail: int32(k)}
		}
	}
	c.availNext = next
	c.sigScratch = sigs
	match := c.matchScratch[:0]
	eq := c.eqScratch[:0]
	matched := c.candMatched[:0]
	for range cand {
		matched = append(matched, false)
	}
	for _, pv := range improved {
		sig := cloudsim.VMSigOf(pv.Type, pv.Items)
		ch, ok := c.avail[sig]
		if !ok {
			match = append(match, -1)
			eq = append(eq, false)
			continue
		}
		k := ch.head
		if next[k] >= 0 {
			ch.head = next[k]
			c.avail[sig] = ch
		} else {
			delete(c.avail, sig)
		}
		matched[k] = true
		match = append(match, k)
		eq = append(eq, equalItems(cand[k].items, pv.Items))
	}
	c.matchScratch = match
	c.eqScratch = eq
	c.candMatched = matched
	// Phase 2: unlink the touched candidates (changed or retired) from
	// the placement maps — untouched nodes keep their entries, which is
	// what makes a no-op pass free.
	touched := c.touchedScratch[:0]
	for j := range improved {
		if k := match[j]; k >= 0 && !eq[j] {
			touched = append(touched, cand[k])
		}
	}
	for k, n := range cand {
		if !matched[k] {
			touched = append(touched, n)
		}
	}
	c.touchedScratch = touched
	c.unlinkPods(touched)
	// Phase 3: apply.
	relink := func(n *node) {
		for _, it := range n.items {
			if i, ok := c.podIndex[it.Pod]; ok {
				c.podNodeLink(i, n.id)
			}
		}
	}
	var created int
	for j, pv := range improved {
		if k := match[j]; k >= 0 {
			if eq[j] {
				continue
			}
			n := cand[k]
			// Canonicalize item order (and with it the used sums) to the
			// optimizer's order, so future passes see identical input.
			n.items = append(n.items[:0], pv.Items...)
			n.recompute()
			c.touchNode(n)
			relink(n)
			continue
		}
		// Repack replacements follow the zone spread constraint but are
		// always on-demand: the optimizer consolidates committed
		// capacity, and billing it at spot rates would let a repack
		// manufacture savings the reconciler's spot fraction governs.
		n := c.createNode(pv.Type, c.pickZone(), false, now)
		n.items = append(n.items, pv.Items...)
		n.recompute()
		c.touchNode(n)
		relink(n)
		if len(n.items) == 0 {
			n.idleSince = now
		}
		created++
	}
	retired := 0
	for k, n := range cand {
		if matched[k] {
			continue
		}
		n.items = n.items[:0]
		n.recompute()
		c.terminate(n, now)
		retired++
	}
	if created > 0 || retired > 0 {
		c.res.OptimizerMoves += created + retired
		if c.rec != nil {
			c.rec.Instant("cluster/optimizer", "repack", "moves", float64(created+retired))
			c.rec.Metrics().Counter("cluster/optimizer_moves").Add(float64(created + retired))
		}
	}
}

// equalItems reports bit-identical item lists (order included).
func equalItems(a, b []cloudsim.PlacedItem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// unlinkPods drops the given node ids from the placement maps of every
// pod with items on them (reconcile re-adds the new homes). Membership
// tests run on generation-stamped mark arrays instead of per-call
// maps: bumping the generation invalidates every stale mark at once,
// so the pass allocates nothing.
func (c *Cluster) unlinkPods(touched []*node) {
	if len(touched) == 0 {
		return
	}
	c.markGen++
	if c.markGen == 0 { // uint32 wrap: every stale stamp is void again
		for i := range c.podMark {
			c.podMark[i] = 0
		}
		for i := range c.nodeMark {
			c.nodeMark[i] = 0
		}
		c.markGen = 1
	}
	gen := c.markGen
	if len(c.podMark) < len(c.pods) {
		c.podMark = append(c.podMark, make([]uint32, len(c.pods)-len(c.podMark))...)
	}
	if len(c.nodeMark) < len(c.nodes) {
		c.nodeMark = append(c.nodeMark, make([]uint32, len(c.nodes)-len(c.nodeMark))...)
	}
	for _, n := range touched {
		c.nodeMark[n.id] = gen
	}
	for _, n := range touched {
		for _, it := range n.items {
			i, ok := c.podIndex[it.Pod]
			if !ok || c.podMark[i] == gen {
				continue
			}
			c.podMark[i] = gen
			p := &c.pods[i]
			kept := p.onNodes[:0]
			for _, nid := range p.onNodes {
				if c.nodeMark[nid] != gen {
					kept = append(kept, nid)
				}
			}
			p.onNodes = kept
		}
	}
}
