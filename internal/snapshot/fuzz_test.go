package snapshot

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"nestless/internal/cloudsim"
	"nestless/internal/cluster"
	"nestless/internal/golden"
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

// reencodeSeed decodes the fuzz seed world, applies edit and encodes
// the result.
func reencodeSeed(tb testing.TB, edit func(*cluster.Snapshot)) []byte {
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

// hostileSnapshots re-encodes the fuzz seed world with one field set
// to a value no capture produces. The zone count once hung Restore
// (withDefaults padded the zone lists out to Zones); a packing cache
// holding more entries than its capacity must be refused, not
// restored into a cache that overflows its bound.
func hostileSnapshots(tb testing.TB) []struct {
	name string
	b    []byte
} {
	return []struct {
		name string
		b    []byte
	}{
		{"zones 1<<26", reencodeSeed(tb, func(s *cluster.Snapshot) { s.Cfg.Zones = 1 << 26 })},
		{"entry count above the cache capacity", reencodeSeed(tb, func(s *cluster.Snapshot) {
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
// the audit may report, but never a crash. A world the audit passes
// then advances 10 sim minutes and is audited again; the seed world
// must still pass.
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
		// Restore must not panic on whatever survived decoding, and a
		// world it builds that passes the audit must advance without a
		// panic. Large RNG positions are skipped for throughput —
		// restoring one replays the stream, which is legitimate
		// O(draws) work, not a hang.
		const maxFuzzDraws = 1 << 20
		if s.Eng.Rand.Draws > maxFuzzDraws || (s.Inj != nil && s.Inj.Rand.Draws > maxFuzzDraws) {
			return
		}
		isSeed := bytes.Equal(b, valid)
		c, err := cluster.Restore(s, cluster.RestoreOpts{})
		if err != nil {
			if isSeed {
				t.Fatalf("Restore rejected the seed world: %v", err)
			}
			return
		}
		audit := func(when string) bool {
			leaks := c.Leaks()
			if len(leaks) > 0 && isSeed {
				t.Fatalf("seed world leaks %s: %s", when, leaks[0])
			}
			return len(leaks) == 0
		}
		if audit("on restore") {
			c.Advance(s.Eng.Now + sim.Time(10*time.Minute))
			audit("10 sim minutes after its restore")
		}
	})
}

// TestDecodeRejectsGarbage pins the codec's failure modes outside the
// fuzzer, so a fuzz-shy environment still checks them.
func TestDecodeRejectsGarbage(t *testing.T) {
	valid := fuzzSeedSnapshot(t)
	// pastBound writes the seed world with one RNG position at the codec
	// bound (uvarint 80 80 80 08) and again one below it (ff ff ff 07),
	// and sets the low bit of the first byte they differ in: the stream
	// then reads the bound plus one, which Encode refuses to write.
	pastBound := func(draws func(*cluster.Snapshot) *uint64) []byte {
		at := reencodeSeed(t, func(s *cluster.Snapshot) { *draws(s) = maxRandDraws })
		below := reencodeSeed(t, func(s *cluster.Snapshot) { *draws(s) = maxRandDraws - 1 })
		i := 0
		for at[i] == below[i] {
			i++
		}
		at[i] |= 1
		return at
	}
	// Encode writes each count key once, in order; renaming the second
	// of two same-length keys repeats the first.
	dupKey := reencodeSeed(t, func(s *cluster.Snapshot) { s.Inj.Counts = map[string]uint64{"dup-a": 1, "dup-b": 2} })
	cases := []struct {
		name, want string
		b          []byte
	}{
		{"empty", "bad magic", nil},
		{"bad magic", "bad magic", []byte("XXXX\x01rest")},
		{"version 99", "format version 99", append([]byte("NLW1"), 99)},
		// Older streams still carry retired fields (v3 the
		// reference-scheduler bit, v4 the autoscaler mode and control
		// periods, v5 the whole-fleet pass pin and pass worker count, v6
		// the sample period, step guard and trajectory windows, v7 the
		// cache size and the cache's capacity and counters); they must
		// fail on the version, before any is parsed.
		{"version 3", "format version 3", append([]byte("NLW1"), 3)},
		{"version 4", "format version 4", append([]byte("NLW1"), 4)},
		{"version 5", "format version 5", append([]byte("NLW1"), 5)},
		{"version 6", "format version 6", append([]byte("NLW1"), 6)},
		{"version 7", "format version 7", append([]byte("NLW1"), 7)},
		{"truncated", "", valid[:len(valid)-7]},
		{"trailing", "1 trailing bytes", append(append([]byte(nil), valid...), 0)},
		{"unknown policy", "unknown policy 7", reencodeSeed(t, func(s *cluster.Snapshot) { s.Cfg.Policy = 7 })},
		{"bad fault spec", "embedded fault spec", reencodeSeed(t, func(s *cluster.Snapshot) { s.FaultsSpec = "node/*" })},
		{"engine RNG past the bound", "engine RNG position 16777217",
			pastBound(func(s *cluster.Snapshot) *uint64 { return &s.Eng.Rand.Draws })},
		{"injector RNG past the bound", "injector RNG position 16777217",
			pastBound(func(s *cluster.Snapshot) *uint64 { return &s.Inj.Rand.Draws })},
		{"repeated count key", `injector count "dup-a" repeated`, bytes.Replace(dupKey, []byte("dup-b"), []byte("dup-a"), 1)},
	}
	for _, c := range cases {
		if _, err := Decode(c.b); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Decode returned %v, want an error containing %q", c.name, err, c.want)
		}
	}
	if _, err := Decode(valid); err != nil {
		t.Errorf("valid snapshot rejected: %v", err)
	}
}

// TestEncodeBytes pins the format byte for byte: the FNV-1a hash of
// Encode's output for the fuzz seed world, the fork benchmark's world
// and the default what-if base world, against testdata/golden.txt. A
// change to the byte layout that keeps the version number fails here.
func TestEncodeBytes(t *testing.T) {
	svc, err := NewService(BaseConfig{})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	encode := func(s *cluster.Snapshot) []byte {
		b, err := Encode(s)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		return b
	}
	g := golden.Open(t, "testdata/golden.txt", "codec/")
	for name, b := range map[string][]byte{
		"codec/fuzz-seed":   fuzzSeedSnapshot(t),
		"codec/bench-world": encode(benchSnapshot(t)),
		"codec/whatif-base": encode(svc.Snapshot()),
	} {
		h := fnv.New64a()
		h.Write(b)
		g.Check(name, fmt.Sprintf("version=%d bytes=%d fnv=%016x", version, len(b), h.Sum64()))
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
