package netsim

import "testing"

func TestCaptureRecordsBothDirections(t *testing.T) {
	eng, n := newWorld()
	a, b := twoHosts(n)
	cap := AttachCapture(a.Iface("eth0"), 0)

	if _, err := b.BindUDP(7, func(p *Packet) {
		b.udp[7].SendTo(p.Src, p.SrcPort, 64, nil)
	}); err != nil {
		t.Fatal(err)
	}
	s, _ := a.BindUDP(0, nil)
	s.SendTo(IP(10, 0, 0, 2), 7, 64, nil)
	eng.Run()

	recs := cap.Records()
	if len(recs) < 4 { // ARP req/reply + data + echo at minimum
		t.Fatalf("captured %d frames, want >= 4", len(recs))
	}
	var tx, rx, arp, ip4 int
	for _, r := range recs {
		if r.Dir == DirTX {
			tx++
		} else {
			rx++
		}
		switch r.Frame.Type {
		case EtherARP:
			arp++
		case EtherIPv4:
			ip4++
		}
		if r.Iface != "eth0" {
			t.Fatalf("record iface %q", r.Iface)
		}
	}
	if tx == 0 || rx == 0 {
		t.Fatalf("tx=%d rx=%d, want both directions", tx, rx)
	}
	if arp == 0 || ip4 == 0 {
		t.Fatalf("arp=%d ipv4=%d, want both kinds", arp, ip4)
	}
	// Timestamps are non-decreasing.
	for i := 1; i < len(recs); i++ {
		if recs[i].At < recs[i-1].At {
			t.Fatal("capture timestamps out of order")
		}
	}
	if recs[0].String() == "" {
		t.Fatal("empty record string")
	}
}

func TestCaptureLimitAndDetach(t *testing.T) {
	eng, n := newWorld()
	a, b := twoHosts(n)
	cap := AttachCapture(a.Iface("eth0"), 2)
	if _, err := b.BindUDP(7, nil); err != nil {
		t.Fatal(err)
	}
	s, _ := a.BindUDP(0, nil)
	for i := 0; i < 5; i++ {
		s.SendTo(IP(10, 0, 0, 2), 7, 64, nil)
	}
	eng.Run()
	if n := len(cap.Records()); n != 2 {
		t.Fatalf("captured %d records, want limit 2", n)
	}
	cap.Detach()
	s.SendTo(IP(10, 0, 0, 2), 7, 64, nil)
	eng.Run()
	if len(cap.Records()) != 2 {
		t.Fatal("capture grew after Detach")
	}
}
