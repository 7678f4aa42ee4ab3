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
// are recycled: remove keeps the entry Delete hands back and the next
// add refills it, so a touch (remove, then add, of one node) reuses
// that node's entry and a steady fleet allocates none. Allocating a
// fresh entry on every add, for the locality of entries churned
// together, was 12% of a 100k-pod replay's bytes and bought no query
// speed: on 2 vCPUs, LifecycleScale/100k/hostlo ran at a median 12.8k
// pods/s recycled and 13.1k fresh (5 alternating runs each, within
// 11.5k-13.4k of each other). Entries stay separate from the ~200-byte
// node struct: embedding them (zero allocations) cost a cache line per
// visited node and made the query ~40% slower.
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
	// free holds the entries remove took out, for add to refill.
	free []*cloudsim.FitNode
}

func newCapIndex(cat []cloudsim.VMType) *capIndex {
	return &capIndex{trees: make([]cloudsim.FitTree, len(cat)), cat: cat}
}

// add indexes a live node under its current free capacities and score.
func (ci *capIndex) add(n *node, score float64) {
	var x *cloudsim.FitNode
	if k := len(ci.free); k > 0 {
		x, ci.free = ci.free[k-1], ci.free[:k-1]
	} else {
		x = new(cloudsim.FitNode)
	}
	t := ci.cat[n.typ]
	x.FreeCPU, x.FreeMem = t.RelCPU-n.usedCPU, t.RelMem-n.usedMem
	x.Score, x.Ord = score, n.id
	ci.trees[n.typ].Insert(x)
	ci.size++
	ci.ver++
}

// remove unindexes a node via its stored key (node.idxScore) and keeps
// its entry for the next add.
func (ci *capIndex) remove(n *node, score float64) {
	if x := ci.trees[n.typ].Delete(score, n.id); x != nil {
		ci.free = append(ci.free, x)
	}
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
	q.siftUp(len(*q) - 1)
}

func (q podQueue) peek() podEntry { return q[0] }

// removeIdx deletes the entry naming pod idx: an O(n) locate, then the
// last entry fills the hole and one O(log n) sift settles it. This is
// not a rare path. In the 100k-pod benchmark replay about 18k of the
// 96,565 departures end a pod that is still pending (82,156 pods were
// ever scheduled and 3,435 still run at the horizon), and a shard
// transfer-out dequeues too; a full re-heapify here took 8.6% of that
// replay's CPU samples.
//
// The array afterwards is exactly what a full bottom-up re-heapify
// (Floyd's loop) would leave: (key, seq) is a strict order, the heap is
// valid everywhere but at i, so that loop only moves anything at i or
// its ancestors — the swaps of one sift down or one sift up. The
// snapshot codec encodes the queue in array order, so the layout is
// part of the contract (TestPodQueueRemoveLayout).
func (q *podQueue) removeIdx(idx int) bool {
	h := *q
	for i := range h {
		if h[i].idx == idx {
			last := len(h) - 1
			h[i] = h[last]
			h = h[:last]
			*q = h
			if i < last {
				// At most one of the two moves anything.
				h.siftDown(i)
				h.siftUp(i)
			}
			return true
		}
	}
	return false
}

// siftUp moves the entry at j toward the root until its parent comes
// first.
func (q podQueue) siftUp(j int) {
	for j > 0 {
		p := (j - 1) / 2
		if !q.entryBefore(q[j], q[p]) {
			return
		}
		q[j], q[p] = q[p], q[j]
		j = p
	}
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
	h.siftDown(0)
	return top
}
