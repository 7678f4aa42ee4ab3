package netsim

import (
	"fmt"

	"nestless/internal/sim"
)

// EtherType identifies the payload protocol of an Ethernet frame.
type EtherType uint16

// EtherTypes used by the simulator.
const (
	EtherIPv4 EtherType = 0x0800
	EtherARP  EtherType = 0x0806
)

// Ethernet framing constants (bytes on the wire).
const (
	EthHeaderLen  = 14 // dst + src + ethertype
	EthOverhead   = 24 // header + FCS + preamble + IFG equivalent
	EthMinPayload = 46
)

// Frame is one Ethernet frame. Exactly one of Packet and ARP is set,
// matching Type.
type Frame struct {
	Dst, Src MAC
	Type     EtherType
	Packet   *Packet
	ARP      *ARPPayload

	// EnqueuedAt is stamped by measurement points (sockets) to compute
	// one-way delays; devices leave it untouched.
	EnqueuedAt sim.Time

	// Corrupted marks a frame damaged by the fault injector; the
	// receiving namespace's FCS check discards it at input.
	Corrupted bool
}

// PayloadLen returns the L3 payload length in bytes.
func (f *Frame) PayloadLen() int {
	switch {
	case f.Packet != nil:
		return f.Packet.TotalLen()
	case f.ARP != nil:
		return arpWireLen
	default:
		return 0
	}
}

// WireLen returns the number of bytes this frame occupies on a link,
// including Ethernet overhead and minimum-frame padding.
func (f *Frame) WireLen() int {
	p := f.PayloadLen()
	if p < EthMinPayload {
		p = EthMinPayload
	}
	return p + EthOverhead
}

// Clone returns a deep copy of the frame's headers. Payload bytes are
// shared (they are immutable by convention); header rewrites by NAT never
// alias between clones. Devices that fan a frame out to several receivers
// (bridge flooding, the Hostlo reflect) must clone.
func (f *Frame) Clone() *Frame {
	nf := *f
	if f.Packet != nil {
		p := *f.Packet
		nf.Packet = &p
	}
	if f.ARP != nil {
		a := *f.ARP
		nf.ARP = &a
	}
	return &nf
}

// String formats the frame for diagnostics.
func (f *Frame) String() string {
	switch {
	case f.Packet != nil:
		return fmt.Sprintf("eth %s>%s %v", f.Src, f.Dst, f.Packet)
	case f.ARP != nil:
		return fmt.Sprintf("eth %s>%s %v", f.Src, f.Dst, f.ARP)
	default:
		return fmt.Sprintf("eth %s>%s type=%#04x", f.Src, f.Dst, uint16(f.Type))
	}
}

// ARP operation codes.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

const arpWireLen = 28

// ARPPayload is an IPv4-over-Ethernet ARP message.
type ARPPayload struct {
	Op        uint16
	SenderMAC MAC
	SenderIP  IPv4
	TargetMAC MAC
	TargetIP  IPv4
}

// String formats the ARP message for diagnostics.
func (a *ARPPayload) String() string {
	if a.Op == ARPRequest {
		return fmt.Sprintf("arp who-has %s tell %s", a.TargetIP, a.SenderIP)
	}
	return fmt.Sprintf("arp %s is-at %s", a.SenderIP, a.SenderMAC)
}
