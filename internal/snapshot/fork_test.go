package snapshot

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"nestless/internal/cluster"
	"nestless/internal/sim"
	"nestless/internal/trace"
)

// Fork isolation: N branches restored concurrently from one shared
// snapshot, each mutating its own world (adoption, kills, policy
// switches), must (a) produce exactly the result a serial from-scratch
// restore with the same delta produces, (b) leave the parent snapshot
// bit-unchanged (its re-encoding is byte-identical), and (c) leave the
// parent world able to continue to the digest of a never-forked run.
// The race detector (CI runs this package under -race) turns any
// accidental sharing of mutable state into a failure.

// branchDelta applies fork i's mutation to its restored world and
// returns the RestoreOpts it needs. Deterministic per index.
func branchDelta(i int) (cluster.RestoreOpts, func(c *cluster.Cluster) error) {
	switch i % 4 {
	case 0: // pure continuation
		return cluster.RestoreOpts{}, func(*cluster.Cluster) error { return nil }
	case 1: // adopt a burst of extra pods
		return cluster.RestoreOpts{}, func(c *cluster.Cluster) error {
			return c.AdoptPods(forkPods(i, 60))
		}
	case 2: // kill the two oldest live nodes
		return cluster.RestoreOpts{}, func(c *cluster.Cluster) error {
			live := c.LiveNodeNames()
			if len(live) < 2 {
				return fmt.Errorf("fork %d: only %d live nodes", i, len(live))
			}
			return c.KillNodesNow(live[:2])
		}
	default: // switch the placement policy
		p := cluster.Kubernetes
		return cluster.RestoreOpts{Policy: &p}, func(*cluster.Cluster) error { return nil }
	}
}

// forkPods derives fork i's adopted pods: IDs disjoint from every trace
// workload and every other fork.
func forkPods(i, n int) []trace.Pod {
	rng := sim.NewRand(int64(1000 + i))
	pods := make([]trace.Pod, n)
	for j := range pods {
		pods[j] = trace.Pod{
			ID: fmt.Sprintf("fork%d-p%d", i, j),
			Containers: []trace.Container{{
				CPU: rng.Uniform(0.02, 0.3),
				Mem: rng.Uniform(0.02, 0.3),
			}},
			Lifetime: time.Duration(rng.Exp(float64(30 * time.Minute))),
		}
	}
	return pods
}

type branchOut struct {
	res    cluster.Result
	digest uint64
	leaks  []string
	err    error
}

// runBranch restores a branch from snap, applies fork i's delta, and
// continues to the horizon.
func runBranch(snap *cluster.Snapshot, i int, horizon sim.Time) branchOut {
	opts, delta := branchDelta(i)
	c, err := cluster.Restore(snap, opts)
	if err != nil {
		return branchOut{err: fmt.Errorf("fork %d restore: %w", i, err)}
	}
	if err := delta(c); err != nil {
		return branchOut{err: err}
	}
	c.Advance(horizon)
	return branchOut{res: c.Finish(), digest: c.Digest(), leaks: c.Leaks()}
}

func TestForkIsolationConcurrent(t *testing.T) {
	const forks = 16
	cfg := cluster.Config{
		Seed:      21,
		Pods:      churnPods(21, 20),
		Policy:    cluster.Hostlo,
		Horizon:   4 * time.Hour,
		BootDelay: 30 * time.Second,
		Faults:    mustSpec(t, "node/*:crash:p=0.02;node/provision:fail:p=0.1"),
	}
	horizon := sim.Time(cfg.Horizon)
	snapAt := sim.Time(2 * time.Hour)

	// The never-forked control run.
	control := cluster.New(cfg)
	control.Start()
	control.Advance(horizon)
	controlRes := control.Finish()
	controlDig := control.Digest()

	// The parent world, captured at snapAt.
	parent := cluster.New(cfg)
	parent.Start()
	parent.Advance(snapAt)
	snap, err := parent.Capture()
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	encBefore, err := Encode(snap)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	// N concurrent branches off the one shared snapshot.
	concurrent := make([]branchOut, forks)
	var wg sync.WaitGroup
	for i := 0; i < forks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			concurrent[i] = runBranch(snap, i, horizon)
		}(i)
	}
	wg.Wait()

	// Serial re-runs with the same deltas must match the concurrent
	// branches exactly: concurrency is wall-clock only.
	for i := 0; i < forks; i++ {
		got := concurrent[i]
		if got.err != nil {
			t.Fatalf("concurrent fork %d: %v", i, got.err)
		}
		if len(got.leaks) > 0 {
			t.Fatalf("concurrent fork %d leaks: %v", i, got.leaks)
		}
		want := runBranch(snap, i, horizon)
		if want.err != nil {
			t.Fatalf("serial fork %d: %v", i, want.err)
		}
		if !reflect.DeepEqual(got.res, want.res) {
			t.Errorf("fork %d: concurrent Result differs from serial:\n  concurrent: %+v\n  serial:     %+v", i, got.res, want.res)
		}
		if got.digest != want.digest {
			t.Errorf("fork %d: concurrent digest %016x != serial %016x", i, got.digest, want.digest)
		}
	}

	// Pure-continuation branches must reproduce the control run.
	for i := 0; i < forks; i += 4 {
		if concurrent[i].digest != controlDig {
			t.Errorf("fork %d (baseline): digest %016x != control %016x", i, concurrent[i].digest, controlDig)
		}
		if !reflect.DeepEqual(concurrent[i].res, controlRes) {
			t.Errorf("fork %d (baseline): Result differs from control", i)
		}
	}

	// The snapshot the branches shared is bit-unchanged.
	encAfter, err := Encode(snap)
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(encBefore, encAfter) {
		t.Fatal("branch queries mutated the shared snapshot")
	}

	// And the parent world, which sat parked through all of it, still
	// continues to the control digest.
	reSnap, err := parent.Capture()
	if err != nil {
		t.Fatalf("parent re-Capture: %v", err)
	}
	encParent, err := Encode(reSnap)
	if err != nil {
		t.Fatalf("parent Encode: %v", err)
	}
	if !bytes.Equal(encBefore, encParent) {
		t.Fatal("branch queries mutated the parent world")
	}
	parent.Advance(horizon)
	parentRes := parent.Finish()
	if dig := parent.Digest(); dig != controlDig {
		t.Errorf("parent continuation digest %016x != control %016x", dig, controlDig)
	}
	if !reflect.DeepEqual(parentRes, controlRes) {
		t.Errorf("parent continuation Result differs from control")
	}
}

// TestForkAdoptionConservation pins the Leaks fix the Adopted counter
// exists for: a branch that adopts pods and then loses nodes must still
// balance the conservation audit — every adopted pod is departed,
// running, pending or failed at the horizon, never lost.
func TestForkAdoptionConservation(t *testing.T) {
	cfg := cluster.Config{
		Seed:      31,
		Pods:      churnPods(31, 15),
		Policy:    cluster.Hostlo,
		Horizon:   3 * time.Hour,
		BootDelay: 30 * time.Second,
		Faults:    mustSpec(t, "node/*:crash:p=0.05"),
	}
	c := cluster.New(cfg)
	c.Start()
	c.Advance(sim.Time(90 * time.Minute))
	branch, err := c.Fork(cluster.RestoreOpts{})
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if err := branch.AdoptPods(forkPods(99, 200)); err != nil {
		t.Fatalf("AdoptPods: %v", err)
	}
	live := branch.LiveNodeNames()
	if len(live) > 1 {
		if err := branch.KillNodesNow(live[:len(live)/2]); err != nil {
			t.Fatalf("KillNodesNow: %v", err)
		}
	}
	branch.Advance(sim.Time(cfg.Horizon))
	res := branch.Finish()
	if leaks := branch.Leaks(); len(leaks) > 0 {
		t.Fatalf("adoption+kill branch leaks: %v", leaks)
	}
	if res.Adopted != 200 {
		t.Errorf("Adopted = %d, want 200", res.Adopted)
	}
	// Duplicate adoption is rejected up front.
	branch2, err := c.Fork(cluster.RestoreOpts{})
	if err != nil {
		t.Fatalf("second Fork: %v", err)
	}
	pods := forkPods(99, 1)
	if err := branch2.AdoptPods(pods); err != nil {
		t.Fatalf("AdoptPods: %v", err)
	}
	if err := branch2.AdoptPods(pods); err == nil {
		t.Fatal("duplicate AdoptPods succeeded")
	}
}
