package cluster

import "nestless/internal/cloudsim"

// The indexed scheduling core: incremental data structures that replace
// the scheduler's per-decision fleet scans without changing a single
// placement decision. Two structures live here:
//
//   - capIndex: per-catalog-type cloudsim.FitTrees of live nodes
//     ordered by (most-requested score desc, creation order asc), so a
//     "most-requested node that fits" query descends a tree instead of
//     scanning the fleet. The comparator is bit-for-bit the linear
//     scan's: the stored score is computed by the same
//     cloudsim.MostRequestedFraction call from the same used sums, and
//     the fit test uses the same `Rel - used >= req` float expression at
//     both the pruning and acceptance levels, so the first in-order
//     fitting node IS the node the scan would have returned.
//
//   - podQueue: a binary max-heap of pending pods keyed by
//     (cpu+mem desc, enqueue sequence asc). sort.SliceStable on the old
//     slice queue compared only cpu+mem and preserved enqueue order among
//     equals; the explicit sequence number reproduces that stability, so
//     the heap pops pods in exactly the order the sorted slice yielded
//     them.
//
// Both structures are deterministic: tree priorities are a hash of the
// node id (no RNG), and ties never consult anything but the
// creation/enqueue order. The golden corpus (testdata/golden.txt) pins
// their decisions.

// capIndex is the capacity index: one FitTree per catalog type,
// combined at query time by bestWholeFit and walked in reverse by the
// optimizer's neighborhood selection. Ordinals are node ids, so a hit
// maps back through Cluster.nodes.
//
// Entries snapshot the node's free capacities at insert time; the
// cluster removes and re-inserts a node around every mutation, so the
// snapshot always equals the live value (Leaks audits this). Entries
// are allocated fresh on every add on purpose: Go's bump allocator
// places entries touched around the same time next to each other, so
// the query crawl over the recently-churned high-score plateau walks a
// compact memory region. (Embedding the entry in the ~200-byte node
// struct was tried — zero allocations, but one cache line per visited
// node made the query ~40% slower.)
//
// Free capacity is stored instead of the used sums: the fit test
// `free >= req` needs no catalog lookup at query time, and the free
// values are computed by the exact `Rel - used` expression the static
// packer's fit test evaluates (cloudsim's freeCPU/freeMem), so the
// comparison outcomes are bit-identical. Trees are per catalog type on
// purpose — all entries of one tree share a machine size, so free
// capacity anti-correlates with score and the subtree maxima actually
// prune the near-full high-score plateau. (A single global tree was
// tried and measured ~3.5x worse: a nearly-full big machine still has
// more absolute free room than an empty small one, so mixed-type
// aggregates never cut.)
type capIndex struct {
	trees []cloudsim.FitTree // one per catalog type
	cat   []cloudsim.VMType
	size  int
	// ver counts mutations. Two equal ver values bracket a window in
	// which the indexed node multiset — and therefore every query
	// answer — was unchanged; the scheduler's blocked-head memo keys on
	// it to skip provably identical re-queries.
	ver uint64
}

func newCapIndex(cat []cloudsim.VMType) *capIndex {
	return &capIndex{trees: make([]cloudsim.FitTree, len(cat)), cat: cat}
}

// add indexes a live node under its current free capacities and score.
func (ci *capIndex) add(n *node, score float64) {
	t := ci.cat[n.typ]
	ci.trees[n.typ].Insert(&cloudsim.FitNode{
		FreeCPU: t.RelCPU - n.usedCPU, FreeMem: t.RelMem - n.usedMem,
		Score: score, Ord: n.id,
	})
	ci.size++
	ci.ver++
}

// remove unindexes a node via its stored key (node.idxScore).
func (ci *capIndex) remove(n *node, score float64) {
	ci.trees[n.typ].Delete(score, n.id)
	ci.size--
	ci.ver++
}

// podEntry is one pending-queue entry.
type podEntry struct {
	key float64 // cpu+mem, fixed at enqueue (pod sizes never change)
	seq uint64  // global enqueue sequence: the stability tie-break
	idx int     // pod index
}

// podQueue is a binary max-heap by (key desc, seq asc).
type podQueue []podEntry

func (q podQueue) entryBefore(a, b podEntry) bool {
	return a.key > b.key || (a.key == b.key && a.seq < b.seq)
}

func (q *podQueue) push(e podEntry) {
	*q = append(*q, e)
	h := *q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.entryBefore(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q podQueue) peek() podEntry { return q[0] }

// removeIdx deletes the entry naming pod idx: O(n) locate, then a
// bottom-up re-heapify. It only runs on the rare paths that retire a
// still-pending pod — a trace end event or a shard transfer-out — never
// per placement decision, so linear cost is fine.
func (q *podQueue) removeIdx(idx int) bool {
	h := *q
	for i := range h {
		if h[i].idx == idx {
			h[i] = h[len(h)-1]
			h = h[:len(h)-1]
			for j := len(h)/2 - 1; j >= 0; j-- {
				h.siftDown(j)
			}
			*q = h
			return true
		}
	}
	return false
}

// siftDown restores the heap property below j.
func (q podQueue) siftDown(j int) {
	for {
		l, r := 2*j+1, 2*j+2
		best := j
		if l < len(q) && q.entryBefore(q[l], q[best]) {
			best = l
		}
		if r < len(q) && q.entryBefore(q[r], q[best]) {
			best = r
		}
		if best == j {
			return
		}
		q[j], q[best] = q[best], q[j]
		j = best
	}
}

func (q *podQueue) pop() podEntry {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	*q = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h) && h.entryBefore(h[l], h[best]) {
			best = l
		}
		if r < len(h) && h.entryBefore(h[r], h[best]) {
			best = r
		}
		if best == i {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	return top
}
