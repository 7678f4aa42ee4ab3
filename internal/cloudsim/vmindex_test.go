package cloudsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomFleet builds a seeded fleet of n VMs with quantized random
// loads (quantization makes waste ties common, exercising the ordinal
// tie-break).
func randomFleet(r *rand.Rand, n int) *fleet {
	cat := Catalog()
	f := &fleet{catalog: cat}
	pod := 0
	for i := 0; i < n; i++ {
		v := &vm{typ: r.Intn(len(cat))}
		for j := r.Intn(5); j > 0; j-- {
			t := cat[v.typ]
			cpu := float64(1+r.Intn(4)) / 16 * t.RelCPU
			mem := float64(1+r.Intn(4)) / 16 * t.RelMem
			if v.freeCPU(cat) < cpu || v.freeMem(cat) < mem {
				continue
			}
			v.place(item{pod: fmt.Sprintf("p%d", pod), cpu: cpu, mem: mem})
			pod++
		}
		f.vms = append(f.vms, v)
	}
	return f
}

// TestConsolidatePathsAgree forces consolidate through both target
// selection paths — linear scan and vmIndex FitTree — on identical seeded
// fleets and requires the resulting placements to match exactly. This
// is the contract that lets the threshold be a pure wall-clock knob.
func TestConsolidatePathsAgree(t *testing.T) {
	defer func(old int) { consolidateIndexThreshold = old }(consolidateIndexThreshold)
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(60)
		base := randomFleet(r, n)

		// Two live clones land in the scratch's two alternating buffers.
		scan := base.cloneBuffered()
		consolidateIndexThreshold = 1 << 30 // force the scan path
		scanMoved := scan.consolidate()

		idx := base.cloneBuffered()
		consolidateIndexThreshold = 0 // force the index path
		idxMoved := idx.consolidate()

		if scanMoved != idxMoved {
			t.Fatalf("seed %d (n=%d): scan moved=%v, index moved=%v", seed, n, scanMoved, idxMoved)
		}
		if !reflect.DeepEqual(scan.vms, idx.vms) {
			t.Fatalf("seed %d (n=%d): fleets diverged after consolidate", seed, n)
		}
	}
}

// TestVMIndexFirstFitMatchesScan cross-checks the index's query against
// the brute-force scan under random insert/refresh/remove traffic.
func TestVMIndexFirstFitMatchesScan(t *testing.T) {
	const ops = 3000
	cat := Catalog()
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		var ix vmIndex
		ix.reset(cat, ops) // every op adds at most one VM
		var vms []*vm
		live := map[int]bool{}
		score := func(v *vm) float64 { return v.waste(cat) }
		for op := 0; op < ops; op++ {
			switch k := r.Intn(10); {
			case k < 3: // add
				v := &vm{typ: r.Intn(len(cat))}
				t := cat[v.typ]
				v.usedCPU = float64(r.Intn(9)) / 8 * t.RelCPU
				v.usedMem = float64(r.Intn(9)) / 8 * t.RelMem
				vms = append(vms, v)
				ord := len(vms) - 1
				ix.add(v, ord, score(v))
				live[ord] = true
			case k < 5 && len(vms) > 0: // refresh with new load
				ord := r.Intn(len(vms))
				if live[ord] {
					v := vms[ord]
					t := cat[v.typ]
					v.usedCPU = float64(r.Intn(9)) / 8 * t.RelCPU
					v.usedMem = float64(r.Intn(9)) / 8 * t.RelMem
					ix.refresh(v, ord, score(v))
				}
			case k < 6 && len(vms) > 0: // remove
				ord := r.Intn(len(vms))
				ix.remove(ord)
				delete(live, ord)
			default: // query
				cpu := r.Float64() * 0.5
				mem := r.Float64() * 0.5
				var want *vm
				wantOrd := -1
				var wantScore float64
				for ord, v := range vms {
					if !live[ord] || v.freeCPU(cat) < cpu || v.freeMem(cat) < mem {
						continue
					}
					if want == nil || score(v) > wantScore {
						want, wantOrd, wantScore = v, ord, score(v)
					}
				}
				got := ix.tree.FirstFit(cpu, mem, 0, -1)
				switch {
				case want == nil && got != nil:
					t.Fatalf("seed %d op %d: scan found nothing, index found ord %d", seed, op, got.Ord)
				case want != nil && got == nil:
					t.Fatalf("seed %d op %d: scan found ord %d, index found nothing", seed, op, wantOrd)
				case want != nil && got.Ord != wantOrd:
					t.Fatalf("seed %d op %d: scan picked ord %d, index ord %d", seed, op, wantOrd, got.Ord)
				}
			}
		}
		if ix.tree.Len() != len(live) {
			t.Fatalf("seed %d: index holds %d VMs, %d live", seed, ix.tree.Len(), len(live))
		}
	}
}
