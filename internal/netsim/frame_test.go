package netsim

import "testing"

func TestFrameWireLenPadding(t *testing.T) {
	f := &Frame{Type: EtherIPv4, Packet: &Packet{Proto: ProtoUDP, PayloadLen: 0}}
	// 28-byte L3 payload < 46 minimum, so padded.
	if got := f.WireLen(); got != EthMinPayload+EthOverhead {
		t.Fatalf("WireLen = %d, want %d", got, EthMinPayload+EthOverhead)
	}
	f.Packet.PayloadLen = 1400
	if got := f.WireLen(); got != 1400+IPv4HeaderLen+UDPHeaderLen+EthOverhead {
		t.Fatalf("WireLen = %d", got)
	}
}

func TestFrameCloneIndependence(t *testing.T) {
	p := &Packet{Src: IP(10, 0, 0, 1), Dst: IP(10, 0, 0, 2), Proto: ProtoUDP, SrcPort: 1, DstPort: 2}
	f := &Frame{Dst: MAC{1}, Src: MAC{2}, Type: EtherIPv4, Packet: p}
	c := f.Clone()
	c.Packet.Dst = IP(99, 99, 99, 99)
	c.Dst = MAC{9}
	if f.Packet.Dst != IP(10, 0, 0, 2) || f.Dst != (MAC{1}) {
		t.Fatal("Clone aliases the original headers")
	}
}

func TestPacketTotalLen(t *testing.T) {
	udp := &Packet{Proto: ProtoUDP, PayloadLen: 100}
	if udp.TotalLen() != 128 {
		t.Fatalf("udp TotalLen = %d, want 128", udp.TotalLen())
	}
	tcp := &Packet{Proto: ProtoTCP, PayloadLen: 100}
	if tcp.TotalLen() != 140 {
		t.Fatalf("tcp TotalLen = %d, want 140", tcp.TotalLen())
	}
}

func TestFlowTupleReverseInvolution(t *testing.T) {
	tu := FlowTuple{Src: IP(1, 1, 1, 1), Dst: IP(2, 2, 2, 2), SrcPort: 10, DstPort: 20, Proto: ProtoTCP}
	if tu.Reverse().Reverse() != tu {
		t.Fatal("Reverse must be an involution")
	}
	r := tu.Reverse()
	if r.Src != tu.Dst || r.SrcPort != tu.DstPort {
		t.Fatal("Reverse did not swap endpoints")
	}
}

func TestStageCost(t *testing.T) {
	c := StageCost{PerPacket: 1000, PerByteNs: 0.5}
	if c.For(0) != 1000 {
		t.Fatalf("For(0) = %v", c.For(0))
	}
	if c.For(2000) != 2000 {
		t.Fatalf("For(2000) = %v", c.For(2000))
	}
	if c.For(-5) != 1000 {
		t.Fatalf("negative size must clamp: %v", c.For(-5))
	}
}
