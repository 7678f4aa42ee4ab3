package netsim

import (
	"fmt"

	"nestless/internal/cpuacct"
)

// Bridge is a learning Ethernet switch living in a namespace (the Linux
// software bridge: docker0 inside VMs, virbr0 on the host). Ports are
// interfaces enslaved to the bridge: their received frames are forwarded
// by the bridge instead of entering the local IP stack. The bridge also
// has its own interface (its name), which gives the owning namespace an
// address on the segment — the NAT gateway address.
type Bridge struct {
	ns   *NetNS
	name string
	fdb  map[MAC]*Iface // learned station → egress port
	port []*Iface
	self *Iface

	// Forwarded and Flooded count switching decisions (diagnostics).
	Forwarded, Flooded uint64
}

// NewBridge creates a bridge and its own interface in ns. The bridge
// interface starts up with no address; assign one with SetAddr.
func NewBridge(ns *NetNS, name string) *Bridge {
	b := &Bridge{ns: ns, name: name, fdb: make(map[MAC]*Iface)}
	self := ns.AddIface(name, ns.Net.NewMAC(), ns.Costs.EthMTU)
	self.Up = true
	self.SetLink(bridgeSelfLink{b})
	b.self = self
	return b
}

// Name returns the bridge name.
func (b *Bridge) Name() string { return b.name }

// Iface returns the bridge's own interface (for addressing/routing).
func (b *Bridge) Iface() *Iface { return b.self }

// AddPort enslaves an interface to the bridge. The interface must live
// in the bridge's namespace.
func (b *Bridge) AddPort(i *Iface) {
	if i.NS != b.ns {
		panic(fmt.Sprintf("netsim: bridge %s and port %s in different namespaces", b.name, i))
	}
	i.rxHook = b.input
	i.Up = true
	b.port = append(b.port, i)
}

// RemovePort releases an interface from the bridge.
func (b *Bridge) RemovePort(i *Iface) {
	for k, p := range b.port {
		if p == i {
			b.port = append(b.port[:k], b.port[k+1:]...)
			break
		}
	}
	i.rxHook = nil
	for mac, p := range b.fdb {
		if p == i {
			delete(b.fdb, mac)
		}
	}
}

// Ports returns the current port list.
func (b *Bridge) Ports() []*Iface { return append([]*Iface(nil), b.port...) }

// input is the rxHook of every port: learn, then switch.
func (b *Bridge) input(in *Iface, f *Frame) {
	// Learn the source station.
	if !f.Src.IsZero() && !f.Src.IsBroadcast() {
		b.fdb[f.Src] = in
	}
	cost := []Charge{{cpuacct.Sys, b.ns.Costs.Bridge.For(f.PayloadLen())}}

	switch {
	case f.Dst == b.self.MAC:
		// For the bridge itself: up into the local stack.
		b.Forwarded++
		b.ns.CPU.RunCosts(cost, b.upHop(f))
	case f.Dst.IsBroadcast():
		b.Flooded++
		b.ns.CPU.RunCosts(cost, func() {
			for _, p := range b.port {
				if p != in {
					p.Transmit(b.ns.Net.CloneFrame(f))
				}
			}
			b.ns.input(b.self, b.ns.Net.CloneFrame(f))
		})
	default:
		if out, ok := b.fdb[f.Dst]; ok {
			if out == nil {
				// Learned from the bridge's own interface: deliver up.
				b.Forwarded++
				b.ns.CPU.RunCosts(cost, b.upHop(f))
				return
			}
			if out == in {
				return // hairpin off
			}
			b.Forwarded++
			b.ns.CPU.RunCosts(cost, b.forwardHop(out, f))
			return
		}
		// Unknown unicast: flood.
		b.Flooded++
		b.ns.CPU.RunCosts(cost, func() {
			for _, p := range b.port {
				if p != in {
					p.Transmit(b.ns.Net.CloneFrame(f))
				}
			}
		})
	}
}

// upHop returns the callback handing f to the bridge's own interface.
func (b *Bridge) upHop(f *Frame) func() {
	h := b.ns.Net.NewHop(hopInput)
	h.NS, h.Iface, h.Frame = b.ns, b.self, f
	return h.Fire()
}

// forwardHop returns the callback transmitting f out of port out.
func (b *Bridge) forwardHop(out *Iface, f *Frame) func() {
	h := b.ns.Net.NewHop(hopTransmit)
	h.Iface, h.Frame = out, f
	return h.Fire()
}

// bridgeSelfLink carries frames the namespace sends via the bridge's own
// interface onto the segment.
type bridgeSelfLink struct{ b *Bridge }

func (l bridgeSelfLink) Send(src *Iface, f *Frame) {
	b := l.b
	if !f.Src.IsZero() && !f.Src.IsBroadcast() {
		b.fdb[f.Src] = nil // local station: nil port means "the bridge itself"
	}
	cost := []Charge{{cpuacct.Sys, b.ns.Costs.Bridge.For(f.PayloadLen())}}
	if f.Dst.IsBroadcast() {
		b.Flooded++
		b.ns.CPU.RunCosts(cost, func() {
			for _, p := range b.port {
				p.Transmit(b.ns.Net.CloneFrame(f))
			}
		})
		return
	}
	if out, ok := b.fdb[f.Dst]; ok && out != nil {
		b.Forwarded++
		b.ns.CPU.RunCosts(cost, b.forwardHop(out, f))
		return
	}
	b.Flooded++
	b.ns.CPU.RunCosts(cost, func() {
		for _, p := range b.port {
			p.Transmit(b.ns.Net.CloneFrame(f))
		}
	})
}
