package cloudsim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestFitTreeMatchesScan drives several FitTrees — one per machine type,
// as the cluster's capacity index keeps them — with seeded random
// insert, re-key and delete traffic, and checks every answer against a
// linear scan over the live entries: FirstFit per tree, FirstFit
// combined across trees with the incumbent threaded through (the
// scheduler's cross-type query), the RevEach order, BuildSorted against
// one-at-a-time inserts (same answers and the same shape), and Len
// after deletes.
func TestFitTreeMatchesScan(t *testing.T) {
	const types = 3
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		trees := make([]FitTree, types)
		var typ []int       // by ordinal
		var live []*FitNode // by ordinal; nil = not indexed
		// Quantized values make score ties and exact fits common.
		q := func() float64 { return float64(r.Intn(9)) / 8 }
		insert := func(ord int) {
			live[ord] = &FitNode{FreeCPU: q(), FreeMem: q(), Score: float64(r.Intn(5)), Ord: ord}
			trees[typ[ord]].Insert(live[ord])
		}
		remove := func(ord int) {
			tr := &trees[typ[ord]]
			if !tr.Delete(live[ord].Score, ord) || tr.Delete(live[ord].Score, ord) {
				t.Fatalf("seed %d: delete of ord %d did not remove exactly once", seed, ord)
			}
			live[ord] = nil
		}
		// scan is the linear oracle: the best live entry of type ty (-1 =
		// any) fitting (cpu, mem), the earliest ordinal among score ties.
		scan := func(ty int, cpu, mem float64) *FitNode {
			var best *FitNode
			for ord, n := range live {
				if n == nil || (ty >= 0 && typ[ord] != ty) || n.FreeCPU < cpu || n.FreeMem < mem {
					continue
				}
				if best == nil || n.Score > best.Score {
					best = n
				}
			}
			return best
		}
		revOrds := func(tr *FitTree) []int {
			var ords []int
			tr.RevEach(func(ord int) bool { ords = append(ords, ord); return true })
			return ords
		}
		for op := 0; op < 4000; op++ {
			switch k := r.Intn(10); {
			case k < 3: // create
				typ, live = append(typ, r.Intn(types)), append(live, nil)
				insert(len(live) - 1)
			case k < 5 && len(live) > 0: // re-key
				if ord := r.Intn(len(live)); live[ord] != nil {
					remove(ord)
					insert(ord)
				}
			case k < 6 && len(live) > 0: // delete
				if ord := r.Intn(len(live)); live[ord] != nil {
					remove(ord)
				}
			case k < 9: // query
				cpu, mem := q(), q()
				bestScore, bestOrd := 0.0, -1
				for ty := range trees {
					if got, want := trees[ty].FirstFit(cpu, mem, 0, -1), scan(ty, cpu, mem); got != want {
						t.Fatalf("seed %d op %d: type %d query (%v, %v): scan %+v, tree %+v", seed, op, ty, cpu, mem, want, got)
					}
					if n := trees[ty].FirstFit(cpu, mem, bestScore, bestOrd); n != nil {
						bestScore, bestOrd = n.Score, n.Ord
					}
				}
				if want := scan(-1, cpu, mem); (want == nil) != (bestOrd < 0) || (want != nil && want.Ord != bestOrd) {
					t.Fatalf("seed %d op %d: combined query (%v, %v): scan %+v, trees ord %d", seed, op, cpu, mem, want, bestOrd)
				}
			default: // bulk-load a copy of one tree, then carry on with it
				ty := r.Intn(types)
				var order []int
				for ord, n := range live {
					if n != nil && typ[ord] == ty {
						order = append(order, ord)
					}
				}
				sort.SliceStable(order, func(a, b int) bool { return live[order[a]].Score > live[order[b]].Score })
				nodes := make([]FitNode, len(live))
				for _, ord := range order {
					nodes[ord] = *live[ord]
					live[ord] = &nodes[ord]
				}
				var built FitTree
				built.BuildSorted(nodes, order)
				want := slices.Clone(order)
				slices.Reverse(want)
				if old := revOrds(&trees[ty]); !slices.Equal(old, want) || !slices.Equal(revOrds(&built), want) {
					t.Fatalf("seed %d op %d: RevEach: inserted %v, built %v, want %v", seed, op, old, revOrds(&built), want)
				}
				if !sameShape(trees[ty].root, built.root) {
					t.Fatalf("seed %d op %d: BuildSorted shaped the treap differently from the inserts", seed, op)
				}
				for i := 0; i < 8; i++ {
					cpu, mem := q(), q()
					if a, b := trees[ty].FirstFit(cpu, mem, 0, -1), built.FirstFit(cpu, mem, 0, -1); (a == nil) != (b == nil) || (a != nil && a.Ord != b.Ord) {
						t.Fatalf("seed %d op %d: query (%v, %v): inserted %+v, built %+v", seed, op, cpu, mem, a, b)
					}
				}
				trees[ty] = built
			}
		}
		for ty := range trees {
			n := 0
			for ord, e := range live {
				if e != nil && typ[ord] == ty {
					n++
				}
			}
			if trees[ty].Len() != n {
				t.Fatalf("seed %d: type %d tree holds %d entries, %d live", seed, ty, trees[ty].Len(), n)
			}
		}
	}
}

// sameShape reports whether two treaps have the same keys in the same
// positions. Priorities are a hash of the ordinal, so a key set has
// exactly one treap, however it was built.
func sameShape(a, b *FitNode) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Ord == b.Ord && sameShape(a.l, b.l) && sameShape(a.r, b.r)
}
