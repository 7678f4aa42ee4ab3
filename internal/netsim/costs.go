package netsim

import "time"

// StageCost is the service time of one processing stage: a fixed
// per-packet cost plus a per-byte cost (payload copies, checksums, DMA).
type StageCost struct {
	PerPacket time.Duration
	PerByteNs float64 // nanoseconds per byte of L3 payload
}

// For returns the service time for a packet carrying n payload bytes.
func (c StageCost) For(n int) time.Duration {
	if n < 0 {
		n = 0
	}
	return c.PerPacket + time.Duration(c.PerByteNs*float64(n))
}

// CostModel holds every calibrated stage cost of the simulated stack.
//
// Calibration. The constants below were fitted so that the vanilla nested
// path (in-VM bridge + NAT on top of host bridge + NAT) reproduces the
// paper's §2 measurements against single-level virtualization at 1280 B
// messages: ≈ −68 % TCP_STREAM throughput and ≈ +31 % UDP_RR latency
// (Fig. 2/4). Individually the values are in the range published for
// Linux 4.19-era stacks: a few hundred ns for bridge forwarding and veth
// crossings, 1–2 µs for iptables/conntrack chains with NAT, ~1 µs for a
// virtio kick (VM exit), 1.5–2 µs of vhost work per packet. The shape of
// every figure — who wins and by what factor — comes from which stages a
// path traverses and on which CPU they execute, not from any single
// constant.
type CostModel struct {
	// Application-level work per message (billed usr).
	AppSend StageCost
	AppRecv StageCost

	// Socket syscalls: per packet plus a copy cost per byte (sys).
	SyscallTX StageCost
	SyscallRX StageCost

	// Receive softirq processing on packet entry into a namespace (soft).
	SoftirqRX StageCost

	// veth pair crossing: transmit side and receive side (sys).
	VethTX StageCost
	VethRX StageCost

	// Learning-bridge forwarding (sys).
	Bridge StageCost

	// Netfilter: base cost of traversing one hook chain with rules,
	// conntrack lookup/insert, and a NAT header rewrite (soft — the paper
	// attributes these hooks to software interrupts, §5.2.3).
	HookChain  StageCost
	Conntrack  StageCost
	NATRewrite StageCost

	// FIB lookup (sys).
	RouteLookup StageCost

	// Loopback device transmit (sys). The loopback MTU is 64 KiB, so
	// intra-pod traffic amortizes this over jumbo segments.
	Loopback StageCost

	// Virtio guest side: descriptor publish, consume, and the kick
	// (VM exit) that notifies the backend (sys).
	VirtioTX   StageCost
	VirtioRX   StageCost
	VirtioKick StageCost

	// Vhost: host-kernel worker moving frames between virtqueues and the
	// host stack. Runs on host CPUs; the paper observes it billed as host
	// sys time on behalf of the guests (§5.3.4).
	Vhost StageCost

	// Hostlo: reflecting one frame into one endpoint queue (host sys).
	// Total reflect cost is per queue served, so fan-out scales with the
	// number of VMs sharing the device.
	HostloReflect StageCost

	// VXLAN overlay encapsulation/decapsulation (soft).
	VXLANEncap StageCost
	VXLANDecap StageCost

	// Wire models the client link: a serialization rate (per byte) and a
	// propagation delay that also absorbs scheduler wakeup latency, which
	// dominates small-message RTTs on real hosts.
	WireSerialize StageCost
	WireDelay     time.Duration

	// MTUs.
	EthMTU int
	LoMTU  int

	// Stream transport parameters.
	StreamMSS    int // bytes of payload per segment on ethernet paths
	StreamWindow int // in-flight window in bytes
	AckEvery     int // cumulative ACK frequency, in segments
}

// DefaultCosts returns the calibrated cost model used by all experiments.
func DefaultCosts() *CostModel {
	return &CostModel{
		AppSend: StageCost{PerPacket: 600 * time.Nanosecond},
		AppRecv: StageCost{PerPacket: 600 * time.Nanosecond},

		SyscallTX: StageCost{PerPacket: 1000 * time.Nanosecond, PerByteNs: 0.20},
		SyscallRX: StageCost{PerPacket: 1000 * time.Nanosecond, PerByteNs: 0.20},

		SoftirqRX: StageCost{PerPacket: 600 * time.Nanosecond},

		VethTX: StageCost{PerPacket: 1200 * time.Nanosecond},
		VethRX: StageCost{PerPacket: 1000 * time.Nanosecond},

		Bridge: StageCost{PerPacket: 1100 * time.Nanosecond},

		HookChain:  StageCost{PerPacket: 600 * time.Nanosecond},
		Conntrack:  StageCost{PerPacket: 700 * time.Nanosecond},
		NATRewrite: StageCost{PerPacket: 1200 * time.Nanosecond},

		RouteLookup: StageCost{PerPacket: 400 * time.Nanosecond},

		Loopback: StageCost{PerPacket: 450 * time.Nanosecond, PerByteNs: 0.05},

		VirtioTX:   StageCost{PerPacket: 900 * time.Nanosecond, PerByteNs: 0.05},
		VirtioRX:   StageCost{PerPacket: 500 * time.Nanosecond, PerByteNs: 0.05},
		VirtioKick: StageCost{PerPacket: 700 * time.Nanosecond},

		Vhost: StageCost{PerPacket: 1500 * time.Nanosecond, PerByteNs: 0.30},

		// Per-queue copy with no GSO/zero-copy: the modified TAP driver
		// duplicates every frame into each endpoint queue, which is why
		// Hostlo's bulk throughput trails batched overlays (Fig. 10)
		// while its short synchronous path keeps latency low.
		HostloReflect: StageCost{PerPacket: 2000 * time.Nanosecond, PerByteNs: 4.4},

		VXLANEncap: StageCost{PerPacket: 800 * time.Nanosecond, PerByteNs: 0.05},
		VXLANDecap: StageCost{PerPacket: 700 * time.Nanosecond, PerByteNs: 0.05},

		WireSerialize: StageCost{PerPacket: 300 * time.Nanosecond, PerByteNs: 0.80}, // ~10 GbE
		WireDelay:     20 * time.Microsecond,

		EthMTU: 1500,
		LoMTU:  65536,

		StreamMSS:    1448,
		StreamWindow: 256 * 1024,
		AckEvery:     2,
	}
}
