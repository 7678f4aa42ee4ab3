package netsim

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"nestless/internal/cpuacct"
	"nestless/internal/faults"
	"nestless/internal/sim"
	"nestless/internal/telemetry"
)

// Net is the root of one simulated network world: the event engine, the
// global allocators and the accounting sink all namespaces share.
type Net struct {
	Eng   *sim.Engine
	Costs *CostModel
	Acct  *cpuacct.Accountant
	// Rec, when set, receives telemetry from every CPU created through
	// NewCPU/CPUView and per-frame flow events from the datapath. Nil
	// disables telemetry at zero cost.
	Rec *telemetry.Recorder
	// Faults, when set, injects scheduled faults at the world's
	// instrumented points (frame transmit here; the control-plane layers
	// read it through their own handles). Nil disables injection at the
	// cost of one nil check per fault point.
	Faults *faults.Injector

	macs   MACAllocator
	connID uint64

	namespaces []*NetNS

	// Free lists for datapath objects (see pool.go). Per-Net and
	// unlocked: each Net runs on exactly one goroutine.
	pktPool   []*Packet
	framePool []*Frame
	hopPool   []*Hop
}

// NewNet builds a world around an engine with the default cost model.
func NewNet(eng *sim.Engine) *Net {
	return &Net{Eng: eng, Costs: DefaultCosts(), Acct: cpuacct.New()}
}

// NewMAC allocates a globally unique MAC address.
func (n *Net) NewMAC() MAC { return n.macs.Next() }

// NewCPU builds a CPU billing to entity (mirrored to guestOf as guest
// time), wired to the world's accountant and — when telemetry is on —
// to its recorder, with the station registered for instrumentation.
func (n *Net) NewCPU(name string, servers int, entity, guestOf string) *CPU {
	c := &CPU{
		Eng:     n.Eng,
		Station: sim.NewStation(n.Eng, name, servers),
		Bill:    BillTo(n.Acct, entity, guestOf),
		Rec:     n.Rec,
		Entity:  entity,
		GuestOf: guestOf,
		net:     n,
	}
	if n.Rec != nil {
		n.Rec.WatchStation(c.Station, entity)
	}
	return c
}

// CPUView returns a CPU sharing base's station but billing to a different
// entity — the guest-view lane of a vCPU (e.g. "app/<name>" work running
// on the "vm-<name>" station).
func (n *Net) CPUView(base *CPU, entity, guestOf string) *CPU {
	return &CPU{
		Eng:     base.Eng,
		Station: base.Station,
		Bill:    BillTo(n.Acct, entity, guestOf),
		Rec:     n.Rec,
		Entity:  entity,
		GuestOf: guestOf,
		net:     n,
	}
}

// nextConnID allocates a globally unique stream connection ID.
func (n *Net) nextConnID() uint64 {
	n.connID++
	return n.connID
}

// Namespaces returns all namespaces created in this world.
func (n *Net) Namespaces() []*NetNS { return n.namespaces }

// Route is one entry of a namespace routing table.
type Route struct {
	Dst Prefix
	Via IPv4   // zero means on-link
	Dev string // egress interface name
}

// NetNS is a network namespace: interfaces, a routing table, an ARP
// cache, netfilter hooks, and sockets. All of its processing runs on one
// CPU (the vCPU lane of the VM it lives in, or a host/client CPU lane).
type NetNS struct {
	Net   *Net
	Name  string
	CPU   *CPU
	Costs *CostModel
	// Forward enables IPv4 forwarding (routers: VM root and host root).
	Forward bool
	// ForwardChainScale multiplies the netfilter costs of the forwarding
	// path (FORWARD/POSTROUTING hooks, conntrack, NAT rewrites). It
	// models rule-chain length: a VM running Docker plus an orchestrator
	// carries long iptables chains that every forwarded (container)
	// packet traverses, while locally terminated traffic does not. Zero
	// means 1.
	ForwardChainScale float64
	// Filter is the namespace's netfilter state (never nil).
	Filter *Netfilter
	// Drops tallies discarded traffic.
	Drops DropCounters

	ifaces  map[string]*Iface
	ifList  []*Iface // the same interfaces in creation order, for scans
	routes  []Route
	arp     map[IPv4]MAC
	arpWait map[IPv4][]*Frame // packets parked on ARP resolution, with egress recorded in frame dst trick

	arpPending map[IPv4]*Iface // outstanding request egress

	lo *Iface

	udp       map[uint16]*UDPSocket
	listeners map[uint16]*StreamListener
	conns     map[connKey]*StreamConn
	pings     map[uint64]*pingWaiter
	nextPort  uint16
}

// NewNS creates a namespace whose work runs on the given CPU. A loopback
// interface "lo" (127.0.0.1/8, 64 KiB MTU) is created and brought up.
func (n *Net) NewNS(name string, cpu *CPU) *NetNS {
	ns := &NetNS{
		Net:        n,
		Name:       name,
		CPU:        cpu,
		Costs:      n.Costs,
		ifaces:     make(map[string]*Iface),
		arp:        make(map[IPv4]MAC),
		arpWait:    make(map[IPv4][]*Frame),
		arpPending: make(map[IPv4]*Iface),
		udp:        make(map[uint16]*UDPSocket),
		listeners:  make(map[uint16]*StreamListener),
		conns:      make(map[connKey]*StreamConn),
		nextPort:   32768,
	}
	ns.Filter = newNetfilter(ns)
	lo := ns.AddIface("lo", MAC{0x00, 0x00, 0x00, 0x00, 0x00, 0x01}, n.Costs.LoMTU)
	lo.SetAddr(IP(127, 0, 0, 1), MustPrefix(IP(127, 0, 0, 0), 8))
	lo.SetLink(loopbackLink{})
	lo.Up = true
	ns.lo = lo
	n.namespaces = append(n.namespaces, ns)
	return ns
}

// AddIface creates an interface in the namespace (down, no link).
func (ns *NetNS) AddIface(name string, mac MAC, mtu int) *Iface {
	if _, dup := ns.ifaces[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate interface %s in %s", name, ns.Name))
	}
	i := &Iface{NS: ns, Name: name, MAC: mac, MTU: mtu}
	ns.ifaces[name] = i
	ns.ifList = append(ns.ifList, i)
	return i
}

// RemoveIface detaches and deletes an interface (used by NIC hot-unplug
// and by moving an interface across namespaces).
func (ns *NetNS) RemoveIface(name string) *Iface {
	i, ok := ns.ifaces[name]
	if !ok {
		return nil
	}
	delete(ns.ifaces, name)
	ns.ifList = slices.DeleteFunc(ns.ifList, func(x *Iface) bool { return x == i })
	i.NS = nil
	return i
}

// AdoptIface moves an interface created elsewhere into this namespace —
// the simulation equivalent of `ip link set dev X netns Y`, which is how
// BrFusion inserts the hot-plugged NIC into the pod's namespace.
func (ns *NetNS) AdoptIface(i *Iface, newName string) {
	if _, dup := ns.ifaces[newName]; dup {
		panic(fmt.Sprintf("netsim: duplicate interface %s in %s", newName, ns.Name))
	}
	i.NS = ns
	i.Name = newName
	ns.ifaces[newName] = i
	ns.ifList = append(ns.ifList, i)
}

// Iface returns the named interface, or nil.
func (ns *NetNS) Iface(name string) *Iface { return ns.ifaces[name] }

// Loopback returns the namespace's lo interface.
func (ns *NetNS) Loopback() *Iface { return ns.lo }

// Ifaces returns the namespace's interfaces in creation order.
func (ns *NetNS) Ifaces() []*Iface { return slices.Clone(ns.ifList) }

// AddRoute installs a route. Routes are kept sorted by prefix length so
// lookup is longest-prefix-match.
func (ns *NetNS) AddRoute(r Route) {
	ns.routes = append(ns.routes, r)
	sort.SliceStable(ns.routes, func(a, b int) bool {
		return ns.routes[a].Dst.Bits > ns.routes[b].Dst.Bits
	})
}

// lookupRoute returns the egress interface and next-hop for dst.
func (ns *NetNS) lookupRoute(dst IPv4) (*Iface, IPv4, bool) {
	// Local delivery and loopback go via lo.
	if dst.IsLoopback() || ns.isLocalAddr(dst) {
		return ns.lo, dst, true
	}
	// On-link subnets of configured interfaces.
	for _, i := range ns.ifList {
		if i == ns.lo || !i.Up || i.Net.Bits == 0 {
			continue
		}
		if i.Net.Contains(dst) {
			return i, dst, true
		}
	}
	for _, r := range ns.routes {
		if !r.Dst.Contains(dst) {
			continue
		}
		i := ns.ifaces[r.Dev]
		if i == nil || !i.Up {
			continue
		}
		nh := r.Via
		if nh.IsZero() {
			nh = dst
		}
		return i, nh, true
	}
	return nil, IPv4{}, false
}

// isLocalAddr reports whether addr belongs to one of the namespace's
// interfaces.
func (ns *NetNS) isLocalAddr(addr IPv4) bool {
	if addr.IsLoopback() {
		return true
	}
	for _, i := range ns.ifList {
		if i.Addr == addr {
			return true
		}
	}
	return false
}

// SetARP installs a static ARP entry (used by tests; normal operation
// resolves dynamically).
func (ns *NetNS) SetARP(ip IPv4, mac MAC) { ns.arp[ip] = mac }

// input processes a frame delivered to iface in, after the softirq charge.
// The frame's life ends here: it is recycled on return (the packet may
// continue through the forwarding path and is detached, not released).
func (ns *NetNS) input(in *Iface, f *Frame) {
	if f.Corrupted {
		// The FCS check at the receiving NIC fails; the frame is gone.
		ns.Drops.Corrupt++
		ns.Net.putFrame(f)
		return
	}
	switch f.Type {
	case EtherARP:
		ns.arpInput(in, f)
	case EtherIPv4:
		p := f.Packet
		if p == nil {
			break
		}
		if !f.Dst.IsBroadcast() && f.Dst != in.MAC {
			ns.Drops.BadMAC++
			break
		}
		// Opportunistic ARP learning from traffic.
		if p.Src != (IPv4{}) && !f.Src.IsZero() {
			ns.arp[p.Src] = f.Src
		}
		ns.ipInput(in, p)
	}
	ns.Net.putFrame(f)
}

// ipInput runs the receive side of the IP stack: PREROUTING, then local
// delivery (INPUT) or forwarding (FORWARD + POSTROUTING).
func (ns *NetNS) ipInput(in *Iface, p *Packet) {
	// The charge list lives on the stack: RunCosts consumes it
	// synchronously, and 8 slots cover the longest chain (forwarding
	// with both NAT rewrites).
	var chargeBuf [8]Charge
	charges := chargeBuf[:0]
	fwScale := ns.ForwardChainScale
	if fwScale <= 0 {
		fwScale = 1
	}
	charge := func(cat cpuacct.Category, c StageCost) {
		charges = append(charges, Charge{cat, c.For(p.PayloadLen)})
	}
	chargeFw := func(cat cpuacct.Category, c StageCost) {
		charges = append(charges, Charge{cat, time.Duration(float64(c.For(p.PayloadLen)) * fwScale)})
	}

	if in == ns.lo {
		// Loopback traffic is NOTRACK-ed (standard for pod-localhost):
		// straight to local delivery.
		ns.CPU.RunCosts(charges, ns.deliverLocalHop(p))
		return
	}

	if ns.isLocalAddr(p.Dst) && !wouldDNAT(ns, p) {
		// Locally terminated traffic traverses the short PREROUTING +
		// INPUT path.
		charge(cpuacct.Soft, ns.Costs.HookChain) // PREROUTING
		charge(cpuacct.Soft, ns.Costs.Conntrack)
		ns.Filter.prerouting(p)
		charge(cpuacct.Soft, ns.Costs.HookChain) // INPUT
		ns.CPU.RunCosts(charges, ns.deliverLocalHop(p))
		return
	}

	// Forwarding path: the full rule chains apply.
	chargeFw(cpuacct.Soft, ns.Costs.HookChain) // PREROUTING
	chargeFw(cpuacct.Soft, ns.Costs.Conntrack)
	if ns.Filter.prerouting(p) {
		chargeFw(cpuacct.Soft, ns.Costs.NATRewrite)
	}
	if ns.isLocalAddr(p.Dst) {
		// DNAT decided it is local after all (rare: rewrite to self).
		charge(cpuacct.Soft, ns.Costs.HookChain)
		ns.CPU.RunCosts(charges, ns.deliverLocalHop(p))
		return
	}
	if !ns.Forward {
		ns.Drops.NotForward++
		return
	}
	if p.TTL <= 1 {
		ns.Drops.TTLExpired++
		return
	}
	p.TTL--
	chargeFw(cpuacct.Soft, ns.Costs.HookChain) // FORWARD
	charge(cpuacct.Sys, ns.Costs.RouteLookup)
	out, nexthop, ok := ns.lookupRoute(p.Dst)
	if !ok {
		ns.Drops.NoRoute++
		return
	}
	chargeFw(cpuacct.Soft, ns.Costs.HookChain) // POSTROUTING
	if ns.Filter.postrouting(p, out) {
		chargeFw(cpuacct.Soft, ns.Costs.NATRewrite)
	}
	ns.CPU.RunCosts(charges, ns.sendViaHop(out, nexthop, p))
}

// wouldDNAT reports whether PREROUTING would redirect this packet (an
// established translation or a DNAT rule match), i.e. whether it takes
// the forwarding chains despite a local destination.
func wouldDNAT(ns *NetNS, p *Packet) bool {
	return ns.Filter.WouldTranslate(p)
}

// Output sends a locally generated packet: OUTPUT hook, routing,
// POSTROUTING, then transmission. extra lets the caller prepend
// app/syscall charges so the whole send is one CPU occupancy.
func (ns *NetNS) Output(p *Packet, extra []Charge) {
	// Stack-backed charge list (see ipInput): extra is at most the
	// app+syscall pair, the output path adds at most four more.
	var chargeBuf [8]Charge
	charges := append(chargeBuf[:0], extra...)
	charge := func(cat cpuacct.Category, c StageCost) {
		charges = append(charges, Charge{cat, c.For(p.PayloadLen)})
	}
	if p.TTL == 0 {
		p.TTL = 64
	}
	charge(cpuacct.Sys, ns.Costs.RouteLookup)
	out, nexthop, ok := ns.lookupRoute(p.Dst)
	if !ok {
		ns.Drops.NoRoute++
		return
	}
	if p.Src.IsZero() {
		if out == ns.lo {
			p.Src = p.Dst // talking to ourselves: source is the same addr
		} else {
			p.Src = out.Addr
		}
	}
	if out != ns.lo {
		// Loopback output is NOTRACK-ed; everything else traverses
		// OUTPUT + POSTROUTING with conntrack.
		charge(cpuacct.Soft, ns.Costs.HookChain) // OUTPUT
		charge(cpuacct.Soft, ns.Costs.Conntrack)
		charge(cpuacct.Soft, ns.Costs.HookChain) // POSTROUTING
		if ns.Filter.postrouting(p, out) {
			charge(cpuacct.Soft, ns.Costs.NATRewrite)
		}
	}
	if rec := ns.Net.Rec; rec != nil && p.Flow == 0 {
		// Open the per-frame flow context here, where the packet enters
		// the datapath; retransmissions of the same packet keep their id.
		p.Flow = rec.FlowBegin(ns.Name, p.Tuple().String())
	}
	ns.CPU.RunCosts(charges, ns.sendViaHop(out, nexthop, p))
}

// sendViaHop returns the callback running sendVia(out, nexthop, p).
func (ns *NetNS) sendViaHop(out *Iface, nexthop IPv4, p *Packet) func() {
	h := ns.Net.NewHop(hopSendVia)
	h.NS, h.Iface, h.Addr, h.Packet = ns, out, nexthop, p
	return h.Fire()
}

func hopSendVia(h *Hop) { h.NS.sendVia(h.Iface, h.Addr, h.Packet) }

// deliverLocalHop returns the callback running deliverLocal(p).
func (ns *NetNS) deliverLocalHop(p *Packet) func() {
	h := ns.Net.NewHop(hopDeliverLocal)
	h.NS, h.Packet = ns, p
	return h.Fire()
}

func hopDeliverLocal(h *Hop) { h.NS.deliverLocal(h.Packet) }

// sendVia frames the packet for the egress interface and transmits,
// resolving the next hop with ARP when needed.
func (ns *NetNS) sendVia(out *Iface, nexthop IPv4, p *Packet) {
	if out == ns.lo {
		// Loopback turnaround: pay the lo transmit cost, then the frame
		// re-enters the same namespace.
		f := ns.Net.getFrame()
		f.Dst, f.Src, f.Type, f.Packet = out.MAC, out.MAC, EtherIPv4, p
		h := ns.Net.NewHop(hopTransmit)
		h.Iface, h.Frame = out, f
		ns.CPU.RunCosts([]Charge{{cpuacct.Sys, ns.Costs.Loopback.For(p.PayloadLen)}}, h.Fire())
		return
	}
	f := ns.Net.getFrame()
	f.Src, f.Type, f.Packet = out.MAC, EtherIPv4, p
	if mac, ok := ns.arp[nexthop]; ok {
		f.Dst = mac
		out.Transmit(f)
		return
	}
	ns.arpResolve(out, nexthop, f)
}

// deliverLocal hands a packet to the owning socket (or the kernel's
// ICMP handling).
func (ns *NetNS) deliverLocal(p *Packet) {
	if p.Flow != 0 {
		if rec := ns.Net.Rec; rec != nil {
			rec.FlowEnd(p.Flow, ns.Name)
		}
	}
	switch p.Proto {
	case ProtoUDP:
		if s, ok := ns.udp[p.DstPort]; ok {
			s.deliver(p)
			return
		}
	case ProtoTCP:
		ns.streamInput(p)
		return
	case ProtoICMP:
		ns.icmpInput(p)
		return
	}
	ns.Drops.NoSocket++
}

// allocPort returns a free ephemeral port for the given protocol space.
func (ns *NetNS) allocPort(inUse func(uint16) bool) uint16 {
	for k := 0; k < 65536; k++ {
		p := ns.nextPort
		ns.nextPort++
		if ns.nextPort < 32768 {
			ns.nextPort = 32768
		}
		if p >= 32768 && !inUse(p) {
			return p
		}
	}
	panic("netsim: ephemeral ports exhausted")
}

// loopbackLink bounces a transmitted frame straight back into the
// transmitting interface's namespace.
type loopbackLink struct{}

func (loopbackLink) Send(src *Iface, f *Frame) {
	// Delivery includes the receive softirq charge.
	src.Deliver(f)
}

// Bill helpers ----------------------------------------------------------

// BillTo returns a billing function that records usage on entity, and —
// when guestOf is non-empty — mirrors the total as guest time of that VM
// (the host view of vCPU execution). The entities' accountant entries
// are resolved on the first charge (so an entity appears in Entities
// exactly as Record would list it) and again after a Reset; every other
// charge is one or two adds.
func BillTo(acct *cpuacct.Accountant, entity, guestOf string) func(cpuacct.Category, time.Duration) {
	return (&biller{acct: acct, entity: entity, guestOf: guestOf}).bill
}

// biller is BillTo's state: the names and their cached entries.
type biller struct {
	acct            *cpuacct.Accountant
	entity, guestOf string
	u, g            *cpuacct.Usage
	epoch           uint64
}

func (b *biller) bill(cat cpuacct.Category, d time.Duration) {
	if b.u == nil || b.epoch != b.acct.Epoch() {
		b.u, b.epoch = b.acct.Entry(b.entity), b.acct.Epoch()
		if b.guestOf != "" {
			b.g = b.acct.Entry(b.guestOf)
		}
	}
	b.u.Add(cat, d)
	if b.g != nil {
		b.g.Add(cpuacct.Guest, d)
	}
}
