package cloudsim

// vmIndex is consolidate's target index: a FitTree over the fleet's
// VMs keyed by (waste desc, position asc), whose ordinals are positions
// in the fleet slice, so a hit names its VM as f.vms[n.Ord]. It owns
// the node storage and the by-ordinal handle table the mutation paths
// need (a VM's node must be findable to remove + re-insert it). Node
// storage is a flat arena indexed by ordinal: consolidate builds a
// fresh index per call over ordinals 0..n-1, so sizing the arena up
// front turns what used to be one heap node plus a map insert per VM
// into two slice allocations per call.
type vmIndex struct {
	tree    FitTree
	arena   []FitNode
	handles []*FitNode // by ordinal; nil = not indexed
	cat     []VMType
}

// reset prepares a recycled index for a fresh build over ordinals
// 0..n-1, growing the arenas to fit and clearing the handle table —
// consolidate rebuilds its index on every call, and recycling the
// backing storage through the optimizer scratch keeps that off the
// heap profile.
func (ix *vmIndex) reset(cat []VMType, n int) {
	ix.cat = cat
	if cap(ix.arena) < n {
		ix.arena = make([]FitNode, n)
		ix.handles = make([]*FitNode, n)
		return
	}
	ix.arena = ix.arena[:n]
	ix.handles = ix.handles[:n]
	for i := range ix.handles {
		ix.handles[i] = nil
	}
}

// buildSorted bulk-loads every VM of f from order, which lists the
// ordinals in tree order — (waste desc, ordinal asc), exactly
// consolidate's visit order — through the O(n) FitTree.BuildSorted.
// wastes holds each VM's current waste by ordinal.
func (ix *vmIndex) buildSorted(f *fleet, order []int, wastes []float64) {
	for _, ord := range order {
		ix.handles[ord] = ix.fill(f.vms[ord], ord, wastes[ord])
	}
	ix.tree.BuildSorted(ix.arena, order)
}

// fill loads v's arena node with the score and its current free
// capacities.
func (ix *vmIndex) fill(v *vm, ord int, score float64) *FitNode {
	n := &ix.arena[ord]
	*n = FitNode{FreeCPU: v.freeCPU(ix.cat), FreeMem: v.freeMem(ix.cat), Score: score, Ord: ord}
	return n
}

// add indexes the unindexed VM v under the given score, freezing its
// current free capacities.
func (ix *vmIndex) add(v *vm, ord int, score float64) {
	n := ix.fill(v, ord, score)
	ix.handles[ord] = n
	ix.tree.Insert(n)
}

// remove drops the VM with this ordinal, if indexed.
func (ix *vmIndex) remove(ord int) {
	if n := ix.handles[ord]; n != nil {
		ix.tree.Delete(n.Score, ord)
		ix.handles[ord] = nil
	}
}

// refresh re-indexes the VM with this ordinal under a new score after
// its contents changed, reusing its arena node (no allocation — this
// runs once per tentative container move in consolidate).
func (ix *vmIndex) refresh(v *vm, ord int, score float64) {
	ix.remove(ord)
	ix.add(v, ord, score)
}
