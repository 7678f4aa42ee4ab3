package netsim

import "nestless/internal/cpuacct"

// vethLink is one direction of a veth pair: frames transmitted on one
// end appear on the peer after the transmit-side crossing cost, paid on
// the transmitting namespace's CPU. The receive-side cost is paid by the
// peer's namespace inside Deliver (softirq) plus the explicit VethRX
// charge here, modelling the two halves of the crossing.
type vethLink struct {
	peer *Iface
}

func (l vethLink) Send(src *Iface, f *Frame) {
	ns := src.NS
	if ns == nil {
		return
	}
	n := f.PayloadLen()
	h := ns.Net.NewHop(hopVethRX)
	h.Iface, h.Frame, h.N = l.peer, f, n
	ns.CPU.RunCosts([]Charge{{cpuacct.Sys, ns.Costs.VethTX.For(n)}}, h.Fire())
}

// hopVethRX pays the receive half of the crossing (N payload bytes) on
// the peer Iface's CPU, then delivers Frame there.
func hopVethRX(h *Hop) {
	peer := h.Iface
	if peer.NS == nil {
		return
	}
	peer.NS.CPU.RunCosts([]Charge{{cpuacct.Sys, peer.NS.Costs.VethRX.For(h.N)}}, h.Then(hopDeliver))
}

// ConnectVeth joins two interfaces as a veth pair.
func ConnectVeth(a, b *Iface) {
	a.SetLink(vethLink{peer: b})
	b.SetLink(vethLink{peer: a})
	a.Up, b.Up = true, true
}

// NewVethPair creates a veth pair with one end in each namespace,
// returning (aEnd, bEnd). MACs are allocated from the world.
func NewVethPair(aNS *NetNS, aName string, bNS *NetNS, bName string) (*Iface, *Iface) {
	a := aNS.AddIface(aName, aNS.Net.NewMAC(), aNS.Costs.EthMTU)
	b := bNS.AddIface(bName, bNS.Net.NewMAC(), bNS.Costs.EthMTU)
	ConnectVeth(a, b)
	return a, b
}
