package cloudsim

// FitTree: the one "best machine that still fits" index. Both
// placement hot loops ask the same question — the scheduler's
// most-requested live node that fits a pod (cluster.capIndex), and
// consolidate's most-wasted other VM that fits a container (vmIndex
// below) — namely the best-scoring machine with free CPU >= cpu and
// free memory >= mem, ties broken by the smallest ordinal. A treap
// ordered by (score desc, ordinal asc) and augmented with subtree
// maxima of the free capacities answers it by a pruned descent: a
// subtree whose roomiest corner cannot fit the request holds no fit and
// is skipped whole, and the first fit found in tree order IS the linear
// scan's answer, because tree order equals the scan's preference order.
//
// Every query is "first fit in tree order" or an in-order walk, so no
// answer depends on tree shape. Priorities are a hash of the ordinal
// (no RNG), so the shape is a pure function of the key set anyway —
// history-independent and byte-identical across replays.

// mix64 is splitmix64: the treap priority hash, and the bit mixer the
// packing cache keys use.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FitNode is one tree entry. Its owner fills FreeCPU, FreeMem, Score
// and Ord before Insert and keeps them frozen while the node is in the
// tree: re-keying is Delete + Insert, so the snapshot always equals the
// owner's live value. Ord is the tie-break and the owner's handle back
// to its machine (node id, fleet position); ordinals in one tree must
// be distinct.
//
// Field order is deliberate: the first 64 bytes hold everything the
// query crawl reads per visited node (prune aggregates, fit snapshot,
// sort key, left child), so a visit costs one cache line; Ord, r and
// prio sit in the second line and are only touched on a score tie, a
// right step, a hit or an insert.
type FitNode struct {
	// Subtree maxima of the free snapshots: a subtree whose roomiest
	// corner cannot fit the request holds no fitting node at all.
	// maxSum is the subtree maximum of FreeCPU+FreeMem — the sharper
	// prune on the tree's too-full prefix, exactly where a best-first
	// query starts: fitting (cpu, mem) requires FreeCPU+FreeMem >=
	// cpu+mem, and float addition is monotone, so a fitting node's free
	// sum can never round below the request sum and the prune can never
	// skip a node the scan would accept.
	maxCPU, maxMem, maxSum float64
	// maxMin is the subtree maximum of min(FreeCPU, FreeMem) — the
	// balance cut. A fitting node has FreeCPU >= cpu AND FreeMem >= mem,
	// hence min(FreeCPU, FreeMem) >= min(cpu, mem) (pure comparisons, no
	// float arithmetic at all). It is what lets a nil query die at the
	// root: when every node is full in at least one dimension, maxCPU
	// and maxMem still look healthy (different nodes supply each), but
	// no node has *both*, and maxMin says so directly.
	maxMin           float64
	FreeCPU, FreeMem float64 // free capacity snapshots
	Score            float64 // the sort key: higher sorts first
	l                *FitNode
	Ord              int // the tie-break: smaller sorts first
	r                *FitNode
	prio             uint64
}

// before is the in-order comparator: higher score first, then the
// smaller ordinal — exactly the preference order of the linear scans
// (a strict > on score keeps the earliest machine among ties).
func (x *FitNode) before(score float64, ord int) bool {
	return x.Score > score || (x.Score == score && x.Ord < ord)
}

// update recomputes the subtree aggregates from the children. The four
// maxima are folded in locals and stored once: versions that wrote
// through the node measured slower on LifecycleScale/10k/hostlo, where
// consolidate re-keys a node per tentative move.
func (x *FitNode) update() {
	c, m := x.FreeCPU, x.FreeMem
	s, mn := c+m, c
	if m < c {
		mn = m
	}
	if l := x.l; l != nil {
		if l.maxCPU > c {
			c = l.maxCPU
		}
		if l.maxMem > m {
			m = l.maxMem
		}
		if l.maxSum > s {
			s = l.maxSum
		}
		if l.maxMin > mn {
			mn = l.maxMin
		}
	}
	if r := x.r; r != nil {
		if r.maxCPU > c {
			c = r.maxCPU
		}
		if r.maxMem > m {
			m = r.maxMem
		}
		if r.maxSum > s {
			s = r.maxSum
		}
		if r.maxMin > mn {
			mn = r.maxMin
		}
	}
	x.maxCPU, x.maxMem, x.maxSum, x.maxMin = c, m, s, mn
}

func rotRight(x *FitNode) *FitNode {
	l := x.l
	x.l = l.r
	l.r = x
	x.update()
	l.update()
	return l
}

func rotLeft(x *FitNode) *FitNode {
	r := x.r
	x.r = r.l
	r.l = x
	x.update()
	r.update()
	return r
}

// FitTree is a treap of FitNodes (max-heap on the ordinal hash). The
// zero value is an empty tree. Node storage belongs to the caller.
type FitTree struct {
	root  *FitNode
	n     int
	spine []*FitNode // BuildSorted's right-spine stack, kept for reuse
}

// Len reports the number of indexed nodes.
func (t *FitTree) Len() int { return t.n }

// Insert indexes x under its current key and free snapshots.
func (t *FitTree) Insert(x *FitNode) {
	x.l, x.r = nil, nil
	x.prio = mix64(uint64(x.Ord))
	x.update()
	t.root = insert(t.root, x)
	t.n++
}

func insert(t, x *FitNode) *FitNode {
	if t == nil {
		return x
	}
	if x.before(t.Score, t.Ord) {
		t.l = insert(t.l, x)
		if t.l.prio > t.prio {
			return rotRight(t)
		}
	} else {
		t.r = insert(t.r, x)
		if t.r.prio > t.prio {
			return rotLeft(t)
		}
	}
	t.update()
	return t
}

// Delete removes the entry with the exact (score, ord) key — the score
// must be the stored one — and reports whether it was present.
func (t *FitTree) Delete(score float64, ord int) bool {
	n := t.n
	t.root = t.delete(t.root, score, ord)
	return t.n < n
}

func (t *FitTree) delete(x *FitNode, score float64, ord int) *FitNode {
	if x == nil {
		return nil
	}
	if x.Score == score && x.Ord == ord {
		// Rotate the entry down by priority until one side is empty.
		switch {
		case x.l == nil:
			t.n--
			return x.r
		case x.r == nil:
			t.n--
			return x.l
		case x.l.prio > x.r.prio:
			x = rotRight(x)
			x.r = t.delete(x.r, score, ord)
		default:
			x = rotLeft(x)
			x.l = t.delete(x.l, score, ord)
		}
	} else if x.before(score, ord) {
		x.r = t.delete(x.r, score, ord)
	} else {
		x.l = t.delete(x.l, score, ord)
	}
	x.update()
	return x
}

// FirstFit returns the first node in tree order whose free snapshots
// cover (cpu, mem) — the scan's pick — or nil. Subtrees are pruned
// through the aggregates; the per-dimension maxima use the same
// `free >= req` comparison as the acceptance test, and the sum and
// balance cuts are necessary conditions of it (fitting is monotone in
// each bound), so pruning can never skip a node the scan would accept.
//
// (bestScore, bestOrd) is an optional incumbent, bestOrd < 0 meaning
// none: the best answer from other trees in a cross-tree combine.
// In-order position is monotone in preference, so the crawl stops
// outright at the first node that cannot beat it, and a hit is always
// strictly better than the incumbent.
func (t *FitTree) FirstFit(cpu, mem, bestScore float64, bestOrd int) *FitNode {
	qmin := cpu
	if mem < cpu {
		qmin = mem
	}
	return t.root.firstFit(cpu, mem, cpu+mem, qmin, bestScore, bestOrd)
}

func (x *FitNode) firstFit(cpu, mem, sum, qmin, bestScore float64, bestOrd int) *FitNode {
	for x != nil {
		if x.maxCPU < cpu || x.maxMem < mem || x.maxSum < sum || x.maxMin < qmin {
			return nil
		}
		if n := x.l.firstFit(cpu, mem, sum, qmin, bestScore, bestOrd); n != nil {
			return n
		}
		if bestOrd >= 0 && !x.before(bestScore, bestOrd) {
			return nil
		}
		if x.FreeCPU >= cpu && x.FreeMem >= mem {
			return x
		}
		x = x.r
	}
	return nil
}

// RevEach walks the tree in reverse order — score asc, ordinal desc
// among equal scores — calling visit with each ordinal until it
// returns false.
func (t *FitTree) RevEach(visit func(ord int) bool) {
	t.root.revEach(visit)
}

func (x *FitNode) revEach(visit func(int) bool) bool {
	if x == nil {
		return true
	}
	return x.r.revEach(visit) && visit(x.Ord) && x.l.revEach(visit)
}

// BuildSorted replaces the tree's contents with nodes[order[0]],
// nodes[order[1]], …, which must be listed in tree order, using the
// stack-based Cartesian-tree construction: O(n) total, no rotations,
// against n O(log n) rotating inserts. The stack holds the right spine;
// a node's aggregates are finalized when it leaves the spine (its
// subtree is complete then), and the leftover spine is finalized
// bottom-up at the end. The result is the same valid treap that n
// Inserts would build — BST order by construction, heap order on prio
// by the pop invariant — so Insert and Delete operate on it unchanged.
func (t *FitTree) BuildSorted(nodes []FitNode, order []int) {
	spine := t.spine[:0]
	for _, i := range order {
		x := &nodes[i]
		x.l, x.r = nil, nil
		x.prio = mix64(uint64(x.Ord))
		var last *FitNode
		for len(spine) > 0 && spine[len(spine)-1].prio < x.prio {
			last = spine[len(spine)-1]
			spine = spine[:len(spine)-1]
			last.update()
		}
		x.l = last
		if len(spine) > 0 {
			spine[len(spine)-1].r = x
		}
		spine = append(spine, x)
	}
	for i := len(spine) - 1; i >= 0; i-- {
		spine[i].update()
	}
	t.root = nil
	if len(spine) > 0 {
		t.root = spine[0]
	}
	t.n = len(order)
	t.spine = spine
}
