package netsim

import (
	"fmt"

	"nestless/internal/cpuacct"
	"nestless/internal/faults"
)

// Link is where an interface's transmitted frames go: the other end of a
// veth pair, a wire, a virtio backend, a Hostlo queue, the loopback
// turnaround. Send is called on the transmitting interface's namespace
// CPU context; implementations charge their own transmit costs.
type Link interface {
	// Send transmits f out of src. Implementations take ownership of f.
	Send(src *Iface, f *Frame)
}

// Iface is a network interface inside a namespace. An interface may be
// enslaved to a bridge (rxHook set), in which case received frames are
// handed to the bridge instead of the local IP stack.
type Iface struct {
	NS   *NetNS
	Name string
	MAC  MAC
	Addr IPv4
	Net  Prefix // the subnet Addr lives in (zero = unnumbered)
	MTU  int
	Up   bool

	link   Link
	rxHook func(in *Iface, f *Frame)     // bridge/overlay intercept, runs after softirq charge
	probe  func(dir Direction, f *Frame) // capture hook (AttachCapture)

	// TXPackets/RXPackets count frames for diagnostics.
	TXPackets, RXPackets uint64
	TXBytes, RXBytes     uint64
}

// SetLink connects the interface's transmit side.
func (i *Iface) SetLink(l Link) { i.link = l }

// Link returns the interface's transmit target.
func (i *Iface) Link() Link { return i.link }

// SetAddr assigns the interface's IP address within subnet.
func (i *Iface) SetAddr(addr IPv4, subnet Prefix) {
	i.Addr = addr
	i.Net = subnet
}

// String formats the interface for diagnostics.
func (i *Iface) String() string {
	ns := "?"
	if i.NS != nil {
		ns = i.NS.Name
	}
	return fmt.Sprintf("%s@%s(%s %s)", i.Name, ns, i.MAC, i.Addr)
}

// Transmit sends a frame out of the interface. The caller has already
// paid its own processing costs; link-specific transmit costs are charged
// by the link. Frames on a downed or unconnected interface are dropped.
func (i *Iface) Transmit(f *Frame) {
	if !i.Up || i.link == nil {
		if i.NS != nil {
			i.NS.Drops.NoLink++
		}
		return
	}
	// Fault points "frame/<ns>/<iface>": the injector can drop the frame
	// (lost on the wire), duplicate it (retransmit glitch), corrupt it
	// (FCS failure at the receiver) or stall the TX queue.
	if inj := injectorOf(i.NS); inj != nil {
		point := "frame/" + i.NS.Name + "/" + i.Name
		switch inj.FrameFate(point) {
		case faults.FateDrop:
			i.NS.Drops.Injected++
			return
		case faults.FateDup:
			i.TXPackets++
			i.TXBytes += uint64(f.WireLen())
			if i.probe != nil {
				i.probe(DirTX, f)
			}
			i.link.Send(i, f.Clone())
		case faults.FateCorrupt:
			f.Corrupted = true
		}
		if s := inj.Stall(point); s > 0 {
			i.TXPackets++
			i.TXBytes += uint64(f.WireLen())
			if i.probe != nil {
				i.probe(DirTX, f)
			}
			i.NS.Net.Eng.After(s, func() { i.link.Send(i, f) })
			return
		}
	}
	i.TXPackets++
	i.TXBytes += uint64(f.WireLen())
	if i.probe != nil {
		i.probe(DirTX, f)
	}
	i.link.Send(i, f)
}

// Deliver hands a received frame to the interface: the receive softirq
// charge is paid on the owning namespace's CPU, then the frame goes to
// the bridge hook (if enslaved) or the local stack.
func (i *Iface) Deliver(f *Frame) {
	if !i.Up || i.NS == nil {
		return
	}
	i.RXPackets++
	i.RXBytes += uint64(f.WireLen())
	if i.probe != nil {
		i.probe(DirRX, f)
	}
	ns := i.NS
	if f.Packet != nil && f.Packet.Flow != 0 {
		if rec := ns.Net.Rec; rec != nil {
			rec.FlowHop(f.Packet.Flow, ns.Name+"/"+i.Name)
		}
	}
	h := ns.Net.NewHop(hopSoftirq)
	h.Iface, h.NS, h.Frame = i, ns, f
	ns.CPU.RunCosts([]Charge{{cpuacct.Soft, ns.Costs.SoftirqRX.For(f.PayloadLen())}}, h.Fire())
}

// hopSoftirq ends Deliver's softirq charge: Frame goes to Iface's bridge
// hook, or else into NS's stack.
func hopSoftirq(h *Hop) {
	if i := h.Iface; i.rxHook != nil {
		i.rxHook(i, h.Frame)
		return
	}
	h.NS.input(h.Iface, h.Frame)
}

// injectorOf returns the world's fault injector for an attached
// interface (nil for detached interfaces and fault-free worlds).
func injectorOf(ns *NetNS) *faults.Injector {
	if ns == nil {
		return nil
	}
	return ns.Net.Faults
}

// DropCounters tallies the reasons a namespace discarded traffic.
type DropCounters struct {
	NoLink     uint64 // interface down or not connected
	BadMAC     uint64 // unicast frame for another MAC
	NoRoute    uint64
	TTLExpired uint64
	NoSocket   uint64
	NotForward uint64 // forwarding disabled
	Injected   uint64 // dropped by the fault injector at transmit
	Corrupt    uint64 // injected corruption caught by the receiver's FCS check
}

// Total returns the sum of all drop counters.
func (d DropCounters) Total() uint64 {
	return d.NoLink + d.BadMAC + d.NoRoute + d.TTLExpired + d.NoSocket + d.NotForward +
		d.Injected + d.Corrupt
}
