package cluster

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"nestless/internal/cloudsim"
)

// Property tests for the indexed core's data structures, checked
// against brute-force oracles under seeded random workloads.

// oracleBestFit is the linear scan the index must reproduce: the
// highest-score node that fits, earliest id among score ties.
func oracleBestFit(nodes []*node, cat []cloudsim.VMType, cpu, mem float64) *node {
	var best *node
	var bestScore float64
	for _, n := range nodes {
		if !n.live {
			continue
		}
		t := cat[n.typ]
		if t.RelCPU-n.usedCPU >= cpu && t.RelMem-n.usedMem >= mem {
			score := cloudsim.MostRequestedFraction(t, n.usedCPU, n.usedMem)
			if best == nil || score > bestScore {
				best, bestScore = n, score
			}
		}
	}
	return best
}

// idxBestFit is bestWholeFit's cross-type combine, reimplemented over a
// bare capIndex so the test does not need a full Cluster.
func idxBestFit(ci *capIndex, nodes []*node, cpu, mem float64) *node {
	bestScore, bestID := 0.0, -1
	for i := range ci.trees {
		if e := ci.trees[i].FirstFit(cpu, mem, bestScore, bestID); e != nil {
			bestScore, bestID = e.Score, e.Ord
		}
	}
	if bestID < 0 {
		return nil
	}
	return nodes[bestID]
}

// TestCapIndexMatchesScan hammers the index with random insert / update
// / delete / query traffic and cross-checks every query against the
// scan oracle.
func TestCapIndexMatchesScan(t *testing.T) {
	cat := cloudsim.Catalog()
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		ci := newCapIndex(cat)
		var nodes []*node
		reindex := func(n *node) {
			if n.indexed {
				ci.remove(n, n.idxScore)
				n.indexed = false
			}
			if n.live {
				n.idxScore = cloudsim.MostRequestedFraction(cat[n.typ], n.usedCPU, n.usedMem)
				ci.add(n, n.idxScore)
				n.indexed = true
			}
		}
		for op := 0; op < 4000; op++ {
			switch k := r.Intn(10); {
			case k < 3: // create
				n := &node{id: len(nodes), typ: r.Intn(len(cat)), live: true}
				nodes = append(nodes, n)
				reindex(n)
			case k < 5 && len(nodes) > 0: // mutate used sums
				n := nodes[r.Intn(len(nodes))]
				if n.live {
					t := cat[n.typ]
					n.usedCPU = t.RelCPU * r.Float64()
					n.usedMem = t.RelMem * r.Float64()
					// Quantize so score ties actually occur.
					n.usedCPU = float64(int(n.usedCPU*8)) / 8 * t.RelCPU
					n.usedMem = float64(int(n.usedMem*8)) / 8 * t.RelMem
					reindex(n)
				}
			case k < 6 && len(nodes) > 0: // kill
				n := nodes[r.Intn(len(nodes))]
				if n.live {
					n.live = false
					n.usedCPU, n.usedMem = 0, 0
					reindex(n)
				}
			default: // query
				cpu := r.Float64() * 0.3
				mem := r.Float64() * 0.3
				want := oracleBestFit(nodes, cat, cpu, mem)
				got := idxBestFit(ci, nodes, cpu, mem)
				if want != got {
					t.Fatalf("seed %d op %d: query (%v, %v): oracle %+v, index %+v",
						seed, op, cpu, mem, want, got)
				}
			}
		}
		live, held := 0, 0
		for _, n := range nodes {
			if n.live {
				live++
			}
		}
		for i := range ci.trees {
			held += ci.trees[i].Len()
		}
		if ci.size != live || held != live {
			t.Fatalf("seed %d: index size %d, trees hold %d, %d live nodes", seed, ci.size, held, live)
		}
	}
}

// TestCapIndexRevEachOrder pins the reverse traversal order the
// neighborhood selection depends on: (score asc, id desc).
func TestCapIndexRevEachOrder(t *testing.T) {
	cat := cloudsim.Catalog()
	ci := newCapIndex(cat)
	var nodes []*node
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		n := &node{id: i, typ: 0, live: true}
		// Three distinct fill levels so ties are plentiful.
		lvl := float64(r.Intn(3)) * 0.3
		n.usedCPU, n.usedMem = lvl*cat[0].RelCPU, lvl*cat[0].RelMem
		n.idxScore = cloudsim.MostRequestedFraction(cat[0], n.usedCPU, n.usedMem)
		ci.add(n, n.idxScore)
		n.indexed = true
		nodes = append(nodes, n)
	}
	var walked []*node
	ci.trees[0].RevEach(func(id int) bool {
		walked = append(walked, nodes[id])
		return true
	})
	if len(walked) != len(nodes) {
		t.Fatalf("walked %d of %d", len(walked), len(nodes))
	}
	want := append([]*node(nil), nodes...)
	sort.Slice(want, func(a, b int) bool {
		if want[a].idxScore != want[b].idxScore {
			return want[a].idxScore < want[b].idxScore
		}
		return want[a].id > want[b].id
	})
	for i := range want {
		if walked[i] != want[i] {
			t.Fatalf("position %d: walked node %d (score %v), want node %d (score %v)",
				i, walked[i].id, walked[i].idxScore, want[i].id, want[i].idxScore)
		}
	}
}

// TestPodQueueStableOrder pins the heap's pop order against the stable
// sort it replaces: biggest key first, enqueue order among equals.
func TestPodQueueStableOrder(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		var q podQueue
		type rec struct {
			key float64
			seq uint64
		}
		var all []rec
		var seq uint64
		pushN := func(n int) {
			for i := 0; i < n; i++ {
				// Few distinct keys → many ties.
				key := float64(r.Intn(5)) * 0.1
				q.push(podEntry{key: key, seq: seq, idx: int(seq)})
				all = append(all, rec{key, seq})
				seq++
			}
		}
		popN := func(n int) {
			// The expected order of the remaining entries under the old
			// stable sort: key desc, insertion (seq) order among equals.
			sort.SliceStable(all, func(a, b int) bool { return all[a].key > all[b].key })
			for i := 0; i < n && len(q) > 0; i++ {
				got := q.pop()
				want := all[0]
				all = all[1:]
				if got.key != want.key || got.seq != want.seq {
					t.Fatalf("seed %d: pop %d: got (%v, %d), want (%v, %d)",
						seed, i, got.key, got.seq, want.key, want.seq)
				}
			}
		}
		// Interleave pushes and pops like the scheduler does.
		for round := 0; round < 20; round++ {
			pushN(1 + r.Intn(20))
			popN(r.Intn(15))
		}
		popN(len(q))
		if len(all) != 0 || len(q) != 0 {
			t.Fatalf("seed %d: %d expected entries left, queue %d", seed, len(all), len(q))
		}
	}
}

// heapifyRemove is the reference removal: fill the hole with the last
// entry, then re-heapify the whole array bottom-up.
func heapifyRemove(q *podQueue, idx int) bool {
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

// TestPodQueueRemoveLayout pins removeIdx's array layout to the full
// re-heapify's: the snapshot codec encodes the queue in array order, so
// equal arrays after every operation keep snapshot bytes and what-if
// digests unchanged.
func TestPodQueueRemoveLayout(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		var got, want podQueue
		var seq uint64
		for op := 0; op < 2000; op++ {
			switch k := r.Intn(10); {
			case k < 5 || len(got) == 0:
				// Few distinct keys → many ties broken by seq.
				e := podEntry{key: float64(r.Intn(8)) * 0.125, seq: seq, idx: int(seq)}
				seq++
				got.push(e)
				want.push(e)
			case k < 7:
				if g, w := got.pop(), want.pop(); g != w {
					t.Fatalf("seed %d op %d: pop %+v, want %+v", seed, op, g, w)
				}
			default:
				// Mostly live entries, sometimes one already gone.
				idx := int(r.Int63n(int64(seq)))
				if len(got) > 0 && r.Intn(4) > 0 {
					idx = got[r.Intn(len(got))].idx
				}
				if g, w := got.removeIdx(idx), heapifyRemove(&want, idx); g != w {
					t.Fatalf("seed %d op %d: removeIdx(%d) = %v, want %v", seed, op, idx, g, w)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d: layout\n%v\nwant\n%v", seed, op, got, want)
			}
		}
	}
}
