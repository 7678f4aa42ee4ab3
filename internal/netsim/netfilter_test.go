package netsim

import (
	"testing"
	"testing/quick"
)

func natNS() *NetNS {
	_, n := newWorld()
	ns := newNS(n, "router")
	i := ns.AddIface("ext", n.NewMAC(), 1500)
	i.SetAddr(IP(203, 0, 113, 1), MustPrefix(IP(203, 0, 113, 0), 24))
	i.Up = true
	return ns
}

func TestMasqueradeRewritesAndReverses(t *testing.T) {
	ns := natNS()
	nf := ns.Filter
	inner := MustPrefix(IP(172, 17, 0, 0), 16)
	nf.AddMasquerade(SNATRule{SrcNet: inner, OutDev: "ext"})
	out := ns.Iface("ext")

	p := &Packet{Src: IP(172, 17, 0, 5), Dst: IP(8, 8, 8, 8), Proto: ProtoUDP, SrcPort: 5555, DstPort: 53}
	if !nf.postrouting(p, out) {
		t.Fatal("masquerade did not fire")
	}
	if p.Src != IP(203, 0, 113, 1) {
		t.Fatalf("src = %v, want egress address", p.Src)
	}
	// Reply comes back to the translated tuple; prerouting must restore.
	reply := &Packet{Src: IP(8, 8, 8, 8), Dst: p.Src, Proto: ProtoUDP, SrcPort: 53, DstPort: p.SrcPort}
	if !nf.prerouting(reply) {
		t.Fatal("reply translation did not fire")
	}
	if reply.Dst != IP(172, 17, 0, 5) || reply.DstPort != 5555 {
		t.Fatalf("reply restored to %v:%d, want 172.17.0.5:5555", reply.Dst, reply.DstPort)
	}
}

func TestMasqueradeSkipsNonMatchingSource(t *testing.T) {
	ns := natNS()
	nf := ns.Filter
	nf.AddMasquerade(SNATRule{SrcNet: MustPrefix(IP(172, 17, 0, 0), 16), OutDev: "ext"})
	p := &Packet{Src: IP(192, 168, 1, 9), Dst: IP(8, 8, 8, 8), Proto: ProtoUDP, SrcPort: 1, DstPort: 2}
	if nf.postrouting(p, ns.Iface("ext")) {
		t.Fatal("masquerade fired for out-of-subnet source")
	}
	if p.Src != IP(192, 168, 1, 9) {
		t.Fatal("packet mutated without a match")
	}
}

func TestMasqueradePortCollisionAllocatesNewPort(t *testing.T) {
	ns := natNS()
	nf := ns.Filter
	inner := MustPrefix(IP(172, 17, 0, 0), 16)
	nf.AddMasquerade(SNATRule{SrcNet: inner, OutDev: "ext"})
	out := ns.Iface("ext")

	// Two distinct inner hosts use the same source port to the same dst.
	a := &Packet{Src: IP(172, 17, 0, 5), Dst: IP(8, 8, 8, 8), Proto: ProtoUDP, SrcPort: 7000, DstPort: 53}
	b := &Packet{Src: IP(172, 17, 0, 6), Dst: IP(8, 8, 8, 8), Proto: ProtoUDP, SrcPort: 7000, DstPort: 53}
	nf.postrouting(a, out)
	nf.postrouting(b, out)
	if a.SrcPort == b.SrcPort {
		t.Fatalf("port collision not resolved: both %d", a.SrcPort)
	}
	// Replies to each translated port reach the right host.
	ra := &Packet{Src: IP(8, 8, 8, 8), Dst: a.Src, Proto: ProtoUDP, SrcPort: 53, DstPort: a.SrcPort}
	rb := &Packet{Src: IP(8, 8, 8, 8), Dst: b.Src, Proto: ProtoUDP, SrcPort: 53, DstPort: b.SrcPort}
	nf.prerouting(ra)
	nf.prerouting(rb)
	if ra.Dst != IP(172, 17, 0, 5) || rb.Dst != IP(172, 17, 0, 6) {
		t.Fatalf("replies demuxed wrong: %v / %v", ra.Dst, rb.Dst)
	}
}

func TestDNATMatchesSpecificAndWildcardAddress(t *testing.T) {
	ns := natNS()
	nf := ns.Filter
	nf.AddDNAT(DNATRule{Proto: ProtoTCP, DstIP: IP(203, 0, 113, 1), DstPort: 80, ToIP: IP(172, 17, 0, 2), ToPort: 8080})

	hit := &Packet{Src: IP(9, 9, 9, 9), Dst: IP(203, 0, 113, 1), Proto: ProtoTCP, SrcPort: 1234, DstPort: 80}
	if !nf.prerouting(hit) || hit.Dst != IP(172, 17, 0, 2) || hit.DstPort != 8080 {
		t.Fatalf("DNAT miss: %v:%d", hit.Dst, hit.DstPort)
	}
	missPort := &Packet{Src: IP(9, 9, 9, 9), Dst: IP(203, 0, 113, 1), Proto: ProtoTCP, SrcPort: 1234, DstPort: 81}
	if nf.prerouting(missPort) {
		t.Fatal("DNAT fired on wrong port")
	}
	missProto := &Packet{Src: IP(9, 9, 9, 9), Dst: IP(203, 0, 113, 1), Proto: ProtoUDP, SrcPort: 1234, DstPort: 80}
	if nf.prerouting(missProto) {
		t.Fatal("DNAT fired on wrong proto")
	}

	// Wildcard rule applies to any local address.
	nf2 := natNS().Filter
	nf2.AddDNAT(DNATRule{Proto: ProtoTCP, DstPort: 443, ToIP: IP(172, 17, 0, 3), ToPort: 8443})
	p := &Packet{Src: IP(9, 9, 9, 9), Dst: IP(203, 0, 113, 1), Proto: ProtoTCP, SrcPort: 5, DstPort: 443}
	if !nf2.prerouting(p) || p.Dst != IP(172, 17, 0, 3) {
		t.Fatal("wildcard DNAT failed for local address")
	}
}

func TestConntrackStableAcrossPackets(t *testing.T) {
	ns := natNS()
	nf := ns.Filter
	nf.AddMasquerade(SNATRule{SrcNet: MustPrefix(IP(172, 17, 0, 0), 16)})
	out := ns.Iface("ext")
	var firstPort uint16
	for i := 0; i < 5; i++ {
		p := &Packet{Src: IP(172, 17, 0, 5), Dst: IP(8, 8, 8, 8), Proto: ProtoTCP, SrcPort: 9000, DstPort: 80}
		nf.postrouting(p, out)
		if i == 0 {
			firstPort = p.SrcPort
		} else if p.SrcPort != firstPort {
			t.Fatalf("flow translation unstable: %d then %d", firstPort, p.SrcPort)
		}
	}
	if nf.ConntrackLen() != 2 { // one entry per direction
		t.Fatalf("conntrack entries = %d, want 2", nf.ConntrackLen())
	}
}

// Property: masquerade followed by the reply-direction translation is
// the identity on (source address, source port) of the original flow.
func TestNATInverseProperty(t *testing.T) {
	prop := func(hostOctet byte, sport, dport uint16, d1, d2 byte) bool {
		if sport == 0 || dport == 0 {
			return true
		}
		ns := natNS()
		nf := ns.Filter
		inner := MustPrefix(IP(172, 17, 0, 0), 16)
		nf.AddMasquerade(SNATRule{SrcNet: inner, OutDev: "ext"})
		src := IP(172, 17, 1, hostOctet)
		dst := IP(8, d1, d2, 8)
		p := &Packet{Src: src, Dst: dst, Proto: ProtoUDP, SrcPort: sport, DstPort: dport}
		if !nf.postrouting(p, ns.Iface("ext")) {
			return false
		}
		reply := &Packet{Src: dst, Dst: p.Src, Proto: ProtoUDP, SrcPort: dport, DstPort: p.SrcPort}
		nf.prerouting(reply)
		return reply.Dst == src && reply.DstPort == sport
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
