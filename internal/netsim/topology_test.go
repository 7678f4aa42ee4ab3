package netsim

import (
	"testing"
	"time"

	"nestless/internal/cpuacct"
	"nestless/internal/sim"
)

// newWorld builds an engine + world for tests.
func newWorld() (*sim.Engine, *Net) {
	eng := sim.New(1)
	eng.MaxSteps = 50_000_000
	return eng, NewNet(eng)
}

// newNS creates a namespace with a single-lane CPU billed to its name.
func newNS(n *Net, name string) *NetNS {
	cpu := NewCPU(n.Eng, name, 1, BillTo(n.Acct, name, ""))
	return n.NewNS(name, cpu)
}

// twoHosts wires a(10.0.0.1/24) -- veth -- b(10.0.0.2/24).
func twoHosts(n *Net) (*NetNS, *NetNS) {
	a, b := newNS(n, "a"), newNS(n, "b")
	ia, ib := NewVethPair(a, "eth0", b, "eth0")
	subnet := MustPrefix(IP(10, 0, 0, 0), 24)
	ia.SetAddr(IP(10, 0, 0, 1), subnet)
	ib.SetAddr(IP(10, 0, 0, 2), subnet)
	return a, b
}

func TestUDPEndToEndWithARP(t *testing.T) {
	eng, n := newWorld()
	a, b := twoHosts(n)

	var echoed int
	_, err := b.BindUDP(7, func(p *Packet) {
		// Echo back to whatever source we saw.
		s := b.udp[7]
		s.SendTo(p.Src, p.SrcPort, p.PayloadLen, p.App)
	})
	if err != nil {
		t.Fatal(err)
	}
	sock, err := a.BindUDP(0, func(p *Packet) { echoed = p.PayloadLen })
	if err != nil {
		t.Fatal(err)
	}
	sock.SendTo(IP(10, 0, 0, 2), 7, 128, "ping")
	eng.Run()

	if echoed != 128 {
		t.Fatalf("echo payload = %d, want 128", echoed)
	}
	// ARP resolved dynamically.
	if _, ok := a.arp[IP(10, 0, 0, 2)]; !ok {
		t.Error("a did not learn b's MAC")
	}
	if _, ok := b.arp[IP(10, 0, 0, 1)]; !ok {
		t.Error("b did not learn a's MAC")
	}
	if d := a.Drops.Total() + b.Drops.Total(); d != 0 {
		t.Errorf("drops = %d, want 0 (a=%+v b=%+v)", d, a.Drops, b.Drops)
	}
	if eng.Now() == 0 {
		t.Error("virtual time did not advance")
	}
}

func TestUDPRoundTripTakesCPUAndWireTime(t *testing.T) {
	eng, n := newWorld()
	a, b := twoHosts(n)
	if _, err := b.BindUDP(9, func(p *Packet) {}); err != nil {
		t.Fatal(err)
	}
	s, _ := a.BindUDP(0, nil)
	s.SendTo(IP(10, 0, 0, 2), 9, 1000, nil)
	eng.Run()
	// CPU accounting must show work in both namespaces.
	if n.Acct.Usage("a").Total() == 0 || n.Acct.Usage("b").Total() == 0 {
		t.Fatal("no CPU time billed")
	}
	if n.Acct.Usage("b").Of(cpuacct.Soft) == 0 {
		t.Error("receive softirq time missing")
	}
}

func TestRouterForwardsAndMasquerades(t *testing.T) {
	eng, n := newWorld()
	client := newNS(n, "client")
	router := newNS(n, "router")
	server := newNS(n, "server")
	router.Forward = true

	ic, rc := NewVethPair(client, "eth0", router, "cli")
	rs, is := NewVethPair(router, "srv", server, "eth0")
	cNet := MustPrefix(IP(10, 0, 2, 0), 24)
	sNet := MustPrefix(IP(192, 168, 1, 0), 24)
	ic.SetAddr(IP(10, 0, 2, 2), cNet)
	rc.SetAddr(IP(10, 0, 2, 1), cNet)
	rs.SetAddr(IP(192, 168, 1, 1), sNet)
	is.SetAddr(IP(192, 168, 1, 2), sNet)
	client.AddRoute(Route{Dst: MustPrefix(IPv4{}, 0), Via: IP(10, 0, 2, 1), Dev: "eth0"})
	server.AddRoute(Route{Dst: MustPrefix(IPv4{}, 0), Via: IP(192, 168, 1, 1), Dev: "eth0"})
	router.Filter.AddMasquerade(SNATRule{SrcNet: cNet, OutDev: "srv"})

	var seenSrc IPv4
	var gotReply bool
	_, err := server.BindUDP(53, func(p *Packet) {
		seenSrc = p.Src
		server.udp[53].SendTo(p.Src, p.SrcPort, 64, "reply")
	})
	if err != nil {
		t.Fatal(err)
	}
	cs, _ := client.BindUDP(0, func(p *Packet) { gotReply = true })
	cs.SendTo(IP(192, 168, 1, 2), 53, 64, "query")
	eng.Run()

	if seenSrc != IP(192, 168, 1, 1) {
		t.Fatalf("server saw source %v, want masqueraded 192.168.1.1", seenSrc)
	}
	if !gotReply {
		t.Fatal("masqueraded reply did not come back")
	}
	if router.Filter.Translations == 0 {
		t.Error("no NAT rewrites recorded")
	}

	// Forwarding costs a hop: the server's reply takes longer than one
	// from the router's own address (ARP is warm on both paths).
	if _, err := router.BindUDP(7, func(p *Packet) {
		router.udp[7].SendTo(p.Src, p.SrcPort, 64, nil)
	}); err != nil {
		t.Fatal(err)
	}
	rtt := func(dst IPv4, port uint16) sim.Time {
		var back sim.Time
		start := eng.Now()
		s, _ := client.BindUDP(0, func(*Packet) { back = eng.Now() - start })
		s.SendTo(dst, port, 64, nil)
		eng.Run()
		return back
	}
	direct, routed := rtt(IP(10, 0, 2, 1), 7), rtt(IP(192, 168, 1, 2), 53)
	if direct <= 0 || routed <= direct {
		t.Fatalf("routed RTT %v not above direct %v", routed, direct)
	}
}

func TestDNATPortPublish(t *testing.T) {
	eng, n := newWorld()
	client := newNS(n, "client")
	host := newNS(n, "host")
	pod := newNS(n, "pod")
	host.Forward = true

	ic, hc := NewVethPair(client, "eth0", host, "cli")
	hp, ip := NewVethPair(host, "pod", pod, "eth0")
	outer := MustPrefix(IP(10, 0, 2, 0), 24)
	inner := MustPrefix(IP(172, 17, 0, 0), 16)
	ic.SetAddr(IP(10, 0, 2, 2), outer)
	hc.SetAddr(IP(10, 0, 2, 1), outer)
	hp.SetAddr(IP(172, 17, 0, 1), inner)
	ip.SetAddr(IP(172, 17, 0, 2), inner)
	client.AddRoute(Route{Dst: MustPrefix(IPv4{}, 0), Via: IP(10, 0, 2, 1), Dev: "eth0"})
	pod.AddRoute(Route{Dst: MustPrefix(IPv4{}, 0), Via: IP(172, 17, 0, 1), Dev: "eth0"})
	// Publish host:8080 -> pod:80, and masquerade pod-originated replies
	// are handled by conntrack automatically.
	host.Filter.AddDNAT(DNATRule{Proto: ProtoUDP, DstPort: 8080, ToIP: IP(172, 17, 0, 2), ToPort: 80})

	var podPort uint16
	var reply bool
	if _, err := pod.BindUDP(80, func(p *Packet) {
		podPort = p.DstPort
		pod.udp[80].SendTo(p.Src, p.SrcPort, 32, nil)
	}); err != nil {
		t.Fatal(err)
	}
	cs, _ := client.BindUDP(0, func(p *Packet) {
		// Reply must appear to come from the published endpoint.
		if p.Src == IP(10, 0, 2, 1) && p.SrcPort == 8080 {
			reply = true
		}
	})
	cs.SendTo(IP(10, 0, 2, 1), 8080, 32, nil)
	eng.Run()

	if podPort != 80 {
		t.Fatalf("pod received on port %d, want 80 (DNAT)", podPort)
	}
	if !reply {
		t.Fatal("un-DNAT-ed reply did not reach client with published source")
	}
}

func TestTTLExpiresInRoutingLoop(t *testing.T) {
	eng, n := newWorld()
	r1 := newNS(n, "r1")
	r2 := newNS(n, "r2")
	r1.Forward, r2.Forward = true, true
	i1, i2 := NewVethPair(r1, "eth0", r2, "eth0")
	net12 := MustPrefix(IP(10, 9, 0, 0), 24)
	i1.SetAddr(IP(10, 9, 0, 1), net12)
	i2.SetAddr(IP(10, 9, 0, 2), net12)
	// Both route the victim prefix at each other: a loop.
	r1.AddRoute(Route{Dst: MustPrefix(IP(8, 8, 8, 0), 24), Via: IP(10, 9, 0, 2), Dev: "eth0"})
	r2.AddRoute(Route{Dst: MustPrefix(IP(8, 8, 8, 0), 24), Via: IP(10, 9, 0, 1), Dev: "eth0"})

	s, _ := r1.BindUDP(0, nil)
	s.SendTo(IP(8, 8, 8, 8), 99, 10, nil)
	eng.Run()
	if r1.Drops.TTLExpired+r2.Drops.TTLExpired == 0 {
		t.Fatal("routing loop did not expire TTL")
	}
}

func TestBridgeLearningAndFlooding(t *testing.T) {
	eng, n := newWorld()
	hub := newNS(n, "hub")
	br := NewBridge(hub, "br0")
	subnet := MustPrefix(IP(192, 168, 50, 0), 24)
	br.Iface().SetAddr(IP(192, 168, 50, 1), subnet)

	var members []*NetNS
	for _, name := range []string{"m1", "m2", "m3"} {
		m := newNS(n, name)
		mi, pi := NewVethPair(m, "eth0", hub, "port-"+name)
		mi.SetAddr(subnet.Host(2+len(members)), subnet)
		br.AddPort(pi)
		members = append(members, m)
	}

	got := map[string]int{}
	for k, m := range members {
		name := m.Name
		if _, err := m.BindUDP(5000, func(p *Packet) { got[name] += p.PayloadLen }); err != nil {
			t.Fatal(err)
		}
		_ = k
	}
	// m1 -> m3 via the bridge.
	s, _ := members[0].BindUDP(0, nil)
	s.SendTo(IP(192, 168, 50, 4), 5000, 77, nil)
	eng.Run()

	if got["m3"] != 77 {
		t.Fatalf("m3 got %d bytes, want 77", got["m3"])
	}
	if got["m2"] != 0 {
		t.Fatal("unicast leaked to m2 after delivery")
	}
	if br.Forwarded == 0 {
		t.Error("bridge never forwarded")
	}
	if br.Flooded == 0 {
		t.Error("ARP broadcast should have flooded")
	}
	// FDB learned the stations involved.
	if len(br.fdb) < 2 {
		t.Errorf("FDB has %d entries, want >= 2", len(br.fdb))
	}
}

func TestBridgeSelfInterfaceReachable(t *testing.T) {
	eng, n := newWorld()
	hub := newNS(n, "hub")
	br := NewBridge(hub, "br0")
	subnet := MustPrefix(IP(192, 168, 50, 0), 24)
	br.Iface().SetAddr(IP(192, 168, 50, 1), subnet)
	m := newNS(n, "m")
	mi, pi := NewVethPair(m, "eth0", hub, "port-m")
	mi.SetAddr(IP(192, 168, 50, 2), subnet)
	br.AddPort(pi)

	var hubGot, mGot bool
	if _, err := hub.BindUDP(123, func(p *Packet) {
		hubGot = true
		hub.udp[123].SendTo(p.Src, p.SrcPort, 8, nil)
	}); err != nil {
		t.Fatal(err)
	}
	ms, _ := m.BindUDP(0, func(p *Packet) { mGot = true })
	ms.SendTo(IP(192, 168, 50, 1), 123, 8, nil)
	eng.Run()
	if !hubGot {
		t.Fatal("member could not reach the bridge address")
	}
	if !mGot {
		t.Fatal("bridge-originated reply did not reach the member")
	}
}

func TestBridgeRemovePortStopsTraffic(t *testing.T) {
	eng, n := newWorld()
	hub := newNS(n, "hub")
	br := NewBridge(hub, "br0")
	subnet := MustPrefix(IP(192, 168, 60, 0), 24)
	br.Iface().SetAddr(IP(192, 168, 60, 1), subnet)
	m1, m2 := newNS(n, "m1"), newNS(n, "m2")
	i1, p1 := NewVethPair(m1, "eth0", hub, "p1")
	i2, p2 := NewVethPair(m2, "eth0", hub, "p2")
	i1.SetAddr(IP(192, 168, 60, 2), subnet)
	i2.SetAddr(IP(192, 168, 60, 3), subnet)
	br.AddPort(p1)
	br.AddPort(p2)

	var got int
	if _, err := m2.BindUDP(1000, func(p *Packet) { got++ }); err != nil {
		t.Fatal(err)
	}
	s, _ := m1.BindUDP(0, nil)
	s.SendTo(IP(192, 168, 60, 3), 1000, 10, nil)
	eng.Run()
	if got != 1 {
		t.Fatalf("got %d datagrams before removal, want 1", got)
	}
	br.RemovePort(p2)
	s.SendTo(IP(192, 168, 60, 3), 1000, 10, nil)
	eng.Run()
	if got != 1 {
		t.Fatalf("traffic still flows after port removal: %d", got)
	}
}

func TestLoopbackDelivery(t *testing.T) {
	eng, n := newWorld()
	a := newNS(n, "a")
	var got int
	if _, err := a.BindUDP(8125, func(p *Packet) { got = p.PayloadLen }); err != nil {
		t.Fatal(err)
	}
	s, _ := a.BindUDP(0, nil)
	s.SendTo(IP(127, 0, 0, 1), 8125, 333, nil)
	eng.Run()
	if got != 333 {
		t.Fatalf("loopback delivery got %d, want 333", got)
	}
}

func TestWireAddsDelay(t *testing.T) {
	eng, n := newWorld()
	a, b := newNS(n, "a"), newNS(n, "b")
	ia := a.AddIface("eth0", n.NewMAC(), n.Costs.EthMTU)
	ib := b.AddIface("eth0", n.NewMAC(), n.Costs.EthMTU)
	subnet := MustPrefix(IP(10, 1, 0, 0), 24)
	ia.SetAddr(IP(10, 1, 0, 1), subnet)
	ib.SetAddr(IP(10, 1, 0, 2), subnet)
	NewWire(eng, "wire0", ia, ib, n.Costs.WireSerialize, 10*time.Microsecond)

	var arrival sim.Time
	if _, err := b.BindUDP(7, func(p *Packet) { arrival = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	s, _ := a.BindUDP(0, nil)
	s.SendTo(IP(10, 1, 0, 2), 7, 100, nil)
	eng.Run()
	// ARP round trip (2 wire delays) plus the data packet (1 delay).
	if arrival < 30*time.Microsecond {
		t.Fatalf("arrival at %v, want >= 30µs of propagation", arrival)
	}
}

func TestIfaceMoveAcrossNamespaces(t *testing.T) {
	eng, n := newWorld()
	a, b := twoHosts(n)
	pod := newNS(n, "pod")
	// Move b's eth0 into pod (the BrFusion namespace insertion).
	moved := b.RemoveIface("eth0")
	if moved == nil {
		t.Fatal("RemoveIface returned nil")
	}
	pod.AdoptIface(moved, "eth0")
	moved.SetAddr(IP(10, 0, 0, 2), MustPrefix(IP(10, 0, 0, 0), 24))

	var got bool
	if _, err := pod.BindUDP(80, func(p *Packet) { got = true }); err != nil {
		t.Fatal(err)
	}
	s, _ := a.BindUDP(0, nil)
	s.SendTo(IP(10, 0, 0, 2), 80, 10, nil)
	eng.Run()
	if !got {
		t.Fatal("traffic did not follow the moved interface")
	}
	if b.Iface("eth0") != nil {
		t.Fatal("old namespace still owns the interface")
	}
}
