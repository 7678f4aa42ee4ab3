package snapshot

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"nestless/internal/cluster"
	"nestless/internal/sim"
	"nestless/internal/telemetry"
)

// The snapshot-equivalence suite: the tentpole's gate. For every leg of
// the matrix (policy × churn × faults × scheduler mode) and for
// adversarial snapshot instants (an exact tick/sample multiple, one
// nanosecond either side of it, and an unaligned mid-epoch time), a run
// that is snapshotted, restored and continued must be byte-identical to
// the run that was never interrupted: same Result (reflect.DeepEqual,
// floats included), same world digest, same text telemetry. The
// Encode/Decode leg additionally proves the binary codec is lossless
// and canonical.

// snapTimes are the capture instants, chosen to land exactly on the
// autoscaler tick + trajectory sample boundary (2h is a multiple of
// both the 30s tick and the sample period horizon/12=20m), one
// nanosecond before and after it, and at an unaligned instant.
func snapTimes() []sim.Time {
	two := sim.Time(2 * time.Hour)
	return []sim.Time{
		two,
		two - 1,
		two + 1,
		sim.Time(1*time.Hour + 17*time.Minute + 13*time.Second),
	}
}

func TestSnapshotEquivalence(t *testing.T) {
	for _, spec := range equivalenceSpecs(t) {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			t.Parallel()
			horizon := sim.Time(spec.cfg.Horizon)

			// The uninterrupted run, with telemetry.
			recA := telemetry.New()
			cfgA := spec.cfg
			cfgA.Rec = recA
			a := cluster.New(cfgA)
			a.Start()
			a.Advance(horizon)
			resA := a.Finish()
			digA := a.Digest()
			if leaks := a.Leaks(); len(leaks) > 0 {
				t.Fatalf("uninterrupted world leaks: %v", leaks)
			}
			var bufA bytes.Buffer
			if err := recA.WriteTextTrace(&bufA); err != nil {
				t.Fatalf("text trace: %v", err)
			}
			recA.Metrics().Table("metrics").WriteText(&bufA)

			for _, snapAt := range snapTimes() {
				snapAt := snapAt
				t.Run(time.Duration(snapAt).String(), func(t *testing.T) {
					// Interrupted: identical world, captured at snapAt,
					// restored (same recorder — cursors must carry over),
					// continued to the horizon.
					recB := telemetry.New()
					cfgB := spec.cfg
					cfgB.Rec = recB
					b := cluster.New(cfgB)
					b.Start()
					b.Advance(snapAt)
					snap, err := b.Capture()
					if err != nil {
						t.Fatalf("Capture at %v: %v", snapAt, err)
					}

					// Codec leg: Encode is lossless and canonical.
					enc1, err := Encode(snap)
					if err != nil {
						t.Fatalf("Encode: %v", err)
					}
					dec, err := Decode(enc1)
					if err != nil {
						t.Fatalf("Decode: %v", err)
					}
					enc2, err := Encode(dec)
					if err != nil {
						t.Fatalf("re-Encode: %v", err)
					}
					if !bytes.Equal(enc1, enc2) {
						t.Fatalf("Encode(Decode(enc)) differs from enc (%d vs %d bytes)", len(enc2), len(enc1))
					}

					c, err := cluster.Restore(snap, cluster.RestoreOpts{Rec: recB})
					if err != nil {
						t.Fatalf("Restore: %v", err)
					}
					c.Advance(horizon)
					resB := c.Finish()
					digB := c.Digest()
					if leaks := c.Leaks(); len(leaks) > 0 {
						t.Fatalf("restored world leaks: %v", leaks)
					}
					if !reflect.DeepEqual(resA, resB) {
						t.Errorf("restored Result differs from uninterrupted:\n  uninterrupted: %+v\n  restored:      %+v", resA, resB)
					}
					if digA != digB {
						t.Errorf("restored digest %016x != uninterrupted %016x", digB, digA)
					}
					var bufB bytes.Buffer
					if err := recB.WriteTextTrace(&bufB); err != nil {
						t.Fatalf("text trace: %v", err)
					}
					recB.Metrics().Table("metrics").WriteText(&bufB)
					if bufA.String() != bufB.String() {
						t.Errorf("telemetry text or metrics diverged after restore (%d vs %d bytes)", bufB.Len(), bufA.Len())
					}

					// Decoded leg: the world rebuilt from bytes (silent —
					// Result and digest are recorder-independent) matches too.
					d, err := cluster.Restore(dec, cluster.RestoreOpts{})
					if err != nil {
						t.Fatalf("Restore(decoded): %v", err)
					}
					d.Advance(horizon)
					resD := d.Finish()
					if leaks := d.Leaks(); len(leaks) > 0 {
						t.Fatalf("decoded world leaks: %v", leaks)
					}
					if !reflect.DeepEqual(resA, resD) {
						t.Errorf("decoded Result differs from uninterrupted:\n  uninterrupted: %+v\n  decoded:       %+v", resA, resD)
					}
					if dig := d.Digest(); dig != digA {
						t.Errorf("decoded digest %016x != uninterrupted %016x", dig, digA)
					}
				})
			}
		})
	}
}

// TestCaptureRefusesMidPass pins the Capture precondition: a world with
// a coalesced schedule pass pending (here provoked by a same-instant
// kill) refuses to capture instead of freezing a half-applied instant.
func TestCaptureRefusesMidPass(t *testing.T) {
	cfg := cluster.Config{
		Seed:      7,
		Pods:      churnPods(7, 10),
		Policy:    cluster.Hostlo,
		Horizon:   2 * time.Hour,
		BootDelay: 0,
	}
	c := cluster.New(cfg)
	c.Start()
	c.Advance(sim.Time(time.Hour))
	live := c.LiveNodeNames()
	if len(live) == 0 {
		t.Fatal("no live nodes after an hour of churn")
	}
	if err := c.KillNodesNow(live); err != nil {
		t.Fatalf("KillNodesNow: %v", err)
	}
	// The kill re-queued pods and kicked the scheduler: the pass is
	// pending at the current instant.
	if _, err := c.Capture(); err == nil {
		t.Fatal("Capture succeeded with a schedule pass pending")
	}
	// Draining the instant makes the world capturable again.
	c.Advance(c.Now())
	if _, err := c.Capture(); err != nil {
		t.Fatalf("Capture after draining the instant: %v", err)
	}
}
