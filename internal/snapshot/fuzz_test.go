package snapshot

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"nestless/internal/cloudsim"
	"nestless/internal/cluster"
	"nestless/internal/sim"
)

// fuzzSeedSnapshot builds a small real captured world for the seed
// corpus: churn, Hostlo (so the packing cache and dirty set are
// populated), faults (so the injector state rides along).
func fuzzSeedSnapshot(tb testing.TB) []byte {
	cfg := cluster.Config{
		Seed:      3,
		Pods:      churnPods(3, 4),
		Policy:    cluster.Hostlo,
		Horizon:   time.Hour,
		BootDelay: 0,
		Faults:    mustSpec(tb, "node/*:crash:p=0.05;node/provision:fail:p=0.1"),
	}
	c := cluster.New(cfg)
	c.Start()
	c.Advance(sim.Time(30 * time.Minute))
	snap, err := c.Capture()
	if err != nil {
		tb.Fatalf("Capture: %v", err)
	}
	enc, err := Encode(snap)
	if err != nil {
		tb.Fatalf("Encode: %v", err)
	}
	return enc
}

// hostileSnapshots re-encodes the fuzz seed world with one field set
// to a value no capture produces. The zone count once hung Restore
// (withDefaults padded the zone lists out to Zones); a packing cache
// holding more entries than its capacity must be refused, not
// restored into a cache that overflows its bound.
func hostileSnapshots(tb testing.TB) []struct {
	name string
	b    []byte
} {
	mutate := func(edit func(*cluster.Snapshot)) []byte {
		s, err := Decode(fuzzSeedSnapshot(tb))
		if err != nil {
			tb.Fatalf("Decode: %v", err)
		}
		edit(s)
		enc, err := Encode(s)
		if err != nil {
			tb.Fatalf("Encode: %v", err)
		}
		return enc
	}
	return []struct {
		name string
		b    []byte
	}{
		{"zones 1<<26", mutate(func(s *cluster.Snapshot) { s.Cfg.Zones = 1 << 26 })},
		{"entry count above the cache capacity", mutate(func(s *cluster.Snapshot) {
			entries := make([]cloudsim.PackCacheEntry, cloudsim.PackCacheCap+1)
			for i := range entries {
				g := []cloudsim.PlacedVM{{Items: []cloudsim.PlacedItem{{Pod: fmt.Sprintf("h%d", i), CPU: 0.1, Mem: 0.1}}}}
				entries[i] = cloudsim.PackCacheEntry{Input: g, Output: g}
			}
			s.Pack = cloudsim.NewPackCacheState(entries)
		})},
	}
}

// FuzzSnapshotRoundTrip feeds the decoder arbitrary bytes. The contract
// under fuzzing: Decode never panics and never over-allocates;
// anything it accepts re-encodes canonically (Encode∘Decode is a
// fixpoint after one round); and cluster.Restore on an accepted
// snapshot either errors cleanly or builds a world whose Leaks audit
// runs to completion — hostile bytes can produce a garbage world, which
// the audit may report, but never a crash.
func FuzzSnapshotRoundTrip(f *testing.F) {
	valid := fuzzSeedSnapshot(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated
	f.Add(valid[:5])            // magic + version only
	f.Add([]byte{})
	f.Add([]byte("NLW1"))
	f.Add([]byte("NLW9\x01"))
	skew := append([]byte(nil), valid...)
	skew[4] = 99 // version byte
	f.Add(skew)
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/3] ^= 0x40
	f.Add(corrupt)
	f.Add(append(append([]byte(nil), valid...), 0xff)) // trailing byte
	for _, h := range hostileSnapshots(f) {
		f.Add(h.b)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Decode(b)
		if err != nil {
			return // rejected cleanly — the common case
		}
		enc1, err := Encode(s)
		if err != nil {
			t.Fatalf("Encode rejected a snapshot Decode accepted: %v", err)
		}
		s2, err := Decode(enc1)
		if err != nil {
			t.Fatalf("Decode rejected its own re-encoding: %v", err)
		}
		enc2, err := Encode(s2)
		if err != nil {
			t.Fatalf("re-Encode: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("Encode∘Decode is not a fixpoint (%d vs %d bytes)", len(enc1), len(enc2))
		}
		// Restore must not panic on whatever survived decoding. (The
		// world is not advanced: a hostile snapshot may carry absurd
		// step budgets; Restore itself must still be total.) Large RNG
		// positions are skipped for throughput — restoring one replays
		// the stream, which is legitimate O(draws) work, not a hang.
		const maxFuzzDraws = 1 << 20
		if s.Eng.Rand.Draws > maxFuzzDraws || (s.Inj != nil && s.Inj.Rand.Draws > maxFuzzDraws) {
			return
		}
		if c, err := cluster.Restore(s, cluster.RestoreOpts{}); err == nil {
			_ = c.Leaks()
		}
	})
}

// TestDecodeRejectsGarbage pins the codec's failure modes outside the
// fuzzer, so a fuzz-shy environment still checks them.
func TestDecodeRejectsGarbage(t *testing.T) {
	valid := fuzzSeedSnapshot(t)
	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  []byte("XXXX\x01rest"),
		"version 99": append([]byte("NLW1"), 99),
		"version 3":  append([]byte("NLW1"), 3),
		"version 4":  append([]byte("NLW1"), 4),
		"version 5":  append([]byte("NLW1"), 5),
		"version 6":  append([]byte("NLW1"), 6),
		"version 7":  append([]byte("NLW1"), 7),
		"truncated":  valid[:len(valid)-7],
		"trailing":   append(append([]byte(nil), valid...), 0),
	}
	for name, b := range cases {
		_, err := Decode(b)
		if err == nil {
			t.Errorf("%s: Decode accepted", name)
			continue
		}
		// Older streams still carry retired fields (v3 the
		// reference-scheduler bit, v4 the autoscaler mode and control
		// periods, v5 the whole-fleet pass pin and pass worker count, v6
		// the sample period, step guard and trajectory windows, v7 the
		// cache size and the cache's capacity and counters); they must
		// fail on the version, before any is parsed.
		if v, ok := strings.CutPrefix(name, "version "); ok && !strings.Contains(err.Error(), "format version "+v) {
			t.Errorf("%s: want the version error, got %v", name, err)
		}
	}
	if _, err := Decode(valid); err != nil {
		t.Errorf("valid snapshot rejected: %v", err)
	}
}

// TestRestoreRejectsHostileSnapshots requires Restore to turn down each
// hostile snapshot with an error, and quickly.
func TestRestoreRejectsHostileSnapshots(t *testing.T) {
	for _, h := range hostileSnapshots(t) {
		s, err := Decode(h.b)
		if err != nil {
			t.Fatalf("%s: Decode: %v", h.name, err)
		}
		start := time.Now()
		_, err = cluster.Restore(s, cluster.RestoreOpts{})
		if took := time.Since(start); err == nil || took > time.Second {
			t.Errorf("%s: Restore returned %v after %v, want an error within 1s", h.name, err, took)
		}
	}
}

// TestDecodedPackCacheKeys: the codec does not serialize cache keys, so
// Decode must derive them. A cache restored from the decoded state must
// hit on every entry's own input, exactly as one restored from the
// captured state does, and hold the same entries in the same order.
func TestDecodedPackCacheKeys(t *testing.T) {
	c := cluster.New(cluster.Config{
		Seed:      42,
		Pods:      churnPods(42, 40),
		Policy:    cluster.Hostlo,
		Horizon:   4 * time.Hour,
		BootDelay: 30 * time.Second,
	})
	c.Start()
	c.Advance(sim.Time(2 * time.Hour))
	snap, err := c.Capture()
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	if len(snap.Pack.Entries) == 0 {
		t.Fatal("world built no packing-cache entries")
	}
	enc, err := Encode(snap)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	for name, st := range map[string]*cloudsim.PackCacheState{"captured": snap.Pack, "decoded": dec.Pack} {
		pc, err := cloudsim.RestorePackCache(st)
		if err != nil {
			t.Fatalf("%s: RestorePackCache: %v", name, err)
		}
		restored := pc.State().Entries
		if len(restored) != len(snap.Pack.Entries) {
			t.Fatalf("%s: restored %d entries, captured %d", name, len(restored), len(snap.Pack.Entries))
		}
		for i, e := range st.Entries {
			if cloudsim.GroupKey(restored[i].Input) != cloudsim.GroupKey(snap.Pack.Entries[i].Input) {
				t.Fatalf("%s: entry %d restored out of recency order", name, i)
			}
			if _, ok := pc.Get(e.Input); !ok {
				t.Fatalf("%s: entry %d misses on its own input", name, i)
			}
		}
	}
}
