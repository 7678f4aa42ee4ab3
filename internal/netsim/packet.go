package netsim

import (
	"fmt"

	"nestless/internal/sim"
)

// Proto is an IP protocol number.
type Proto uint8

// Protocols used by the simulator.
const (
	ProtoTCP Proto = 6
	ProtoUDP Proto = 17
)

// String names the protocol.
func (p Proto) String() string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto-%d", uint8(p))
	}
}

// IP header sizes (no options).
const (
	IPv4HeaderLen = 20
	UDPHeaderLen  = 8
	TCPHeaderLen  = 20
)

// SegKind distinguishes stream-protocol segments.
type SegKind uint8

// Stream segment kinds.
const (
	SegData SegKind = iota
	SegAck
	SegConnect
	SegAccept
)

// Seg carries the stream-transport metadata of a ProtoTCP packet.
type Seg struct {
	Kind   SegKind
	Seq    uint64 // first payload byte's stream offset (SegData)
	AckSeq uint64 // cumulative acknowledged offset (SegAck)
	ConnID uint64 // demultiplexes connections sharing a port pair
}

// Packet is one IPv4 packet with its L4 header and simulated payload.
// Payload content is represented by PayloadLen (bytes that cost wire and
// CPU time) plus App, an arbitrary application-level message carried out
// of band — the simulator does not serialize application data.
type Packet struct {
	Src, Dst         IPv4
	Proto            Proto
	SrcPort, DstPort uint16
	TTL              uint8
	PayloadLen       int
	Seg              Seg // meaningful when Proto == ProtoTCP
	App              interface{}

	// SentAt is the instant the packet left the sending socket; receivers
	// use it for one-way delay measurements.
	SentAt sim.Time

	// Flow is the telemetry flow-context id threading this packet's path
	// through the trace (0 = untraced). It survives forwarding and frame
	// cloning but is not part of the wire encoding.
	Flow uint64
}

// TotalLen returns the L3 length: IP header + L4 header + payload.
func (p *Packet) TotalLen() int {
	h := IPv4HeaderLen
	switch p.Proto {
	case ProtoUDP:
		h += UDPHeaderLen
	case ProtoTCP:
		h += TCPHeaderLen
	}
	return h + p.PayloadLen
}

// FlowTuple identifies the packet's connection 5-tuple.
type FlowTuple struct {
	Src, Dst         IPv4
	SrcPort, DstPort uint16
	Proto            Proto
}

// Tuple returns the packet's 5-tuple.
func (p *Packet) Tuple() FlowTuple {
	return FlowTuple{Src: p.Src, Dst: p.Dst, SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: p.Proto}
}

// Reverse returns the tuple with endpoints swapped — the tuple a reply
// packet carries.
func (t FlowTuple) Reverse() FlowTuple {
	return FlowTuple{Src: t.Dst, Dst: t.Src, SrcPort: t.DstPort, DstPort: t.SrcPort, Proto: t.Proto}
}

// String formats the tuple for diagnostics.
func (t FlowTuple) String() string {
	return fmt.Sprintf("%s %s:%d>%s:%d", t.Proto, t.Src, t.SrcPort, t.Dst, t.DstPort)
}

// String formats the packet for diagnostics.
func (p *Packet) String() string {
	return fmt.Sprintf("%v len=%d ttl=%d", p.Tuple(), p.PayloadLen, p.TTL)
}
