package main

// Outputs recorded on the default seed (42). A run on that seed must
// reproduce them exactly; any other seed runs the invariant checks only.

var expectReplay = struct {
	digest uint64
	epochs int
	merged replayCounters
}{
	digest: 0x84bc834439af3370,
	epochs: 32,
	merged: replayCounters{Arrived: 100000, Scheduled: 82156, Departed: 96565, Running: 3435,
		ScaleUps: 990, ScaleDowns: 472, PeakNodes: 932, FinalNodes: 518, ReconcileRounds: 8670},
}

// expectWhatif holds the reply digest of each query variant and the
// service's base digest. The base world is the same on every seed; the
// add-pods pods are drawn from the seed.
var expectWhatif = map[string]string{
	"base":          "b5f4b4121e291a7a",
	"baseline":      "b5f4b4121e291a7a",
	"add-pods-0":    "a26f392c17d1958f",
	"add-pods-1":    "87996521cf302b6f",
	"add-pods-2":    "d80f89fb2fcd231c",
	"add-pods-3":    "6607c426efa637a8",
	"add-pods-4":    "6a1fae1d0747345b",
	"add-pods-5":    "98a1bfc2e15698ea",
	"add-pods-6":    "480e691d34245334",
	"add-pods-7":    "8bfb4b79a2df952d",
	"switch-policy": "a4a639f602de627d",
	"kill-nodes":    "7abd48ca2f1225f1",
}

type expectCell struct {
	mbps  string // ThroughputMbps to one decimal
	rttUS int64  // mean UDP_RR round trip, whole µs
}

var expectDatapath = map[string]expectCell{
	"fig4-nat":       {"304.4", 126},
	"fig4-brfusion":  {"882.2", 98},
	"fig4-nocont":    {"882.4", 98},
	"fig10-samenode": {"2202.0", 10},
	"fig10-hostlo":   {"458.8", 41},
	"fig10-nat":      {"219.1", 118},
	"fig10-overlay":  {"475.1", 236},
}

// expectFig11 is the FNV-1a hash of the Fig. 11 table.
const expectFig11 = 0xbba14c1f0e885011
