package netsim

// Datapath object pools. The simulated datapath creates one Packet per
// stream segment/ACK and one Frame per link crossing; at stream rates
// that is hundreds of thousands of short-lived heap objects per second
// of virtual time. Ownership of both is linear — a frame ends its life
// at exactly one namespace's input (or is cloned-and-dropped on fan-out
// paths), and a stream packet ends at exactly one streamInput — so both
// can be recycled through per-Net free lists at those points.
//
// The pools are deliberately per-Net and lock-free: each Net is owned by
// one engine and one goroutine, so recycling is deterministic (same
// seed, same alloc/release order, same tables) and safe under the
// parallel experiment harness, where concurrent workers each own a
// private Net.
//
// Release rules:
//   - putFrame: only at a point where the frame cannot be referenced
//     again — the end of NetNS.input, or after a fan-out path has cloned
//     it for every receiver. The attached Packet may outlive the frame
//     (forwarding), so putFrame detaches it and never releases it.
//   - putPacket: only for stream-transport packets, at the end of
//     streamInput — the transport never leaks *Packet to applications
//     (OnMessage receives size/app/sentAt), unlike UDP's OnRecv, so UDP
//     packets are never pooled.
//
// Dropped objects (ring overflows, no-route, bad MAC before input) are
// simply left to the GC: a pool miss is a missed reuse, never a leak.

// poolCap bounds each free list; beyond it objects go back to the GC.
// Steady-state datapaths keep well under this.
const poolCap = 4096

// getPacket returns a zeroed Packet, recycled when possible.
func (n *Net) getPacket() *Packet {
	if last := len(n.pktPool) - 1; last >= 0 {
		p := n.pktPool[last]
		n.pktPool[last] = nil
		n.pktPool = n.pktPool[:last]
		return p
	}
	return new(Packet)
}

// putPacket recycles p. The caller must guarantee no remaining
// references; p is zeroed here so stale App/Flow state can never leak
// into a reuse.
func (n *Net) putPacket(p *Packet) {
	if p == nil || len(n.pktPool) >= poolCap {
		return
	}
	*p = Packet{}
	n.pktPool = append(n.pktPool, p)
}

// getFrame returns a zeroed Frame, recycled when possible.
func (n *Net) getFrame() *Frame {
	if last := len(n.framePool) - 1; last >= 0 {
		f := n.framePool[last]
		n.framePool[last] = nil
		n.framePool = n.framePool[:last]
		return f
	}
	return new(Frame)
}

// putFrame recycles f, detaching (not releasing) any payload the frame
// still carries: the packet may be forwarded on, and ARP payloads are
// cheap one-offs.
func (n *Net) putFrame(f *Frame) {
	if f == nil || len(n.framePool) >= poolCap {
		return
	}
	*f = Frame{}
	n.framePool = append(n.framePool, f)
}
