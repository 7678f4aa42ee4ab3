// Package overlay models Docker's overlay network driver — the paper's
// baseline for cross-node pod traffic ("the only currently viable
// approach for cross-node pod deployment", §5.1). Each VM runs a VTEP:
// containers attach to a per-VM overlay bridge, and frames leaving for a
// remote VM are VXLAN-encapsulated (50 B of headers) into UDP carriers
// sent over the underlay (the VM's normal NIC through the host bridge).
//
// The driver batches outgoing frames per destination VTEP, amortizing
// per-packet underlay costs — which is exactly why Docker Overlay shows
// strong throughput but poor, erratic latency in Fig. 10: throughput
// rides the batch, latency pays for it.
package overlay

import (
	"fmt"
	"time"

	"nestless/internal/cpuacct"
	"nestless/internal/netsim"
	"nestless/internal/vmm"
)

// VXLANPort is the UDP underlay port.
const VXLANPort = 4789

// vxlanOverhead is the encapsulation size: outer UDP/IP is accounted by
// the carrier packet itself; this is the VXLAN+inner-Ethernet framing.
const vxlanOverhead = 50

// Network is one overlay network spanning the VMs that joined it.
type Network struct {
	Name   string
	Subnet netsim.Prefix
	// Batch is the TX batching depth (frames per carrier).
	Batch int
	// FlushDelay bounds how long a partial batch may wait.
	FlushDelay time.Duration

	vteps  map[string]*VTEP // by VM name
	fdb    map[netsim.MAC]*VTEP
	ipNext int

	// Carriers and Encapsulated count underlay packets and inner frames.
	Carriers, Encapsulated uint64
}

// NewNetwork creates an overlay network with the default Docker-like
// parameters.
func NewNetwork(name string, subnet netsim.Prefix) *Network {
	return &Network{
		Name:       name,
		Subnet:     subnet,
		Batch:      16,
		FlushDelay: 60 * time.Microsecond,
		vteps:      make(map[string]*VTEP),
		fdb:        make(map[netsim.MAC]*VTEP),
		ipNext:     2,
	}
}

// AllocIP hands out the next container address on the overlay subnet.
func (n *Network) AllocIP() netsim.IPv4 {
	ip := n.Subnet.Host(n.ipNext)
	n.ipNext++
	return ip
}

// VTEP is one VM's overlay termination: the per-VM overlay bridge plus
// the VXLAN uplink into the underlay.
type VTEP struct {
	net    *Network
	vm     *vmm.VM
	Bridge *netsim.Bridge
	// UnderlayAddr is the VM's routable address carriers are sent to.
	UnderlayAddr netsim.IPv4

	vxIface *netsim.Iface
	pending map[*VTEP][]*netsim.Frame
	flushAt map[*VTEP]bool
}

// carrier is the out-of-band payload of one VXLAN UDP packet.
type carrier struct {
	frames []*netsim.Frame
}

// Join attaches a VM to the network: creates its overlay bridge, its
// VXLAN uplink, and binds the underlay UDP socket.
func (n *Network) Join(vm *vmm.VM, underlayAddr netsim.IPv4) (*VTEP, error) {
	if _, dup := n.vteps[vm.Name]; dup {
		return nil, fmt.Errorf("overlay: VM %s already joined %s", vm.Name, n.Name)
	}
	v := &VTEP{
		net:          n,
		vm:           vm,
		UnderlayAddr: underlayAddr,
		pending:      make(map[*VTEP][]*netsim.Frame),
		flushAt:      make(map[*VTEP]bool),
	}
	v.Bridge = netsim.NewBridge(vm.NS, "br-"+n.Name)
	// The VXLAN device hangs off the overlay bridge as a port that
	// captures frames for non-local stations.
	vx := vm.NS.AddIface("vxlan-"+n.Name, vm.NS.Net.NewMAC(), vm.NS.Costs.EthMTU)
	vx.SetLink(vxlanLink{v: v})
	vx.Up = true
	v.Bridge.AddPort(vx)
	v.vxIface = vx

	if _, err := vm.NS.BindUDP(VXLANPort, v.receive); err != nil {
		return nil, fmt.Errorf("overlay: underlay bind on %s: %w", vm.Name, err)
	}
	n.vteps[vm.Name] = v
	return v, nil
}

// VTEP returns a VM's termination point, or nil.
func (n *Network) VTEP(vm string) *VTEP { return n.vteps[vm] }

// vxlanLink receives frames the overlay bridge floods/forwards to the
// VXLAN port and tunnels them to remote VTEPs.
type vxlanLink struct{ v *VTEP }

func (l vxlanLink) Send(_ *netsim.Iface, f *netsim.Frame) {
	l.v.egress(f)
}

// egress tunnels one overlay frame: pick target VTEPs (FDB hit or
// flood), pay the encapsulation cost, and batch per target.
func (v *VTEP) egress(f *netsim.Frame) {
	n := v.net
	var targets []*VTEP
	if t, ok := n.fdb[f.Dst]; ok {
		if t == v {
			return // local station; the bridge already delivered it
		}
		targets = []*VTEP{t}
	} else {
		// Broadcast or unknown unicast: flood to every peer.
		for _, t := range n.vteps {
			if t != v {
				targets = append(targets, t)
			}
		}
	}
	if len(targets) == 0 {
		return
	}
	size := f.PayloadLen()
	charges := []netsim.Charge{{Cat: cpuacct.Soft, D: v.vm.NS.Costs.VXLANEncap.For(size) * time.Duration(len(targets))}}
	v.vm.NS.CPU.RunCosts(charges, func() {
		for _, t := range targets {
			n.Encapsulated++
			v.pending[t] = append(v.pending[t], v.vm.NS.Net.CloneFrame(f))
			if len(v.pending[t]) >= n.Batch {
				v.flush(t)
			} else if !v.flushAt[t] {
				v.flushAt[t] = true
				v.vm.Host.Eng.After(n.FlushDelay, func() {
					if v.flushAt[t] {
						v.flush(t)
					}
				})
			}
		}
	})
}

// flush emits one carrier with the pending batch for target t.
func (v *VTEP) flush(t *VTEP) {
	frames := v.pending[t]
	if len(frames) == 0 {
		v.flushAt[t] = false
		return
	}
	v.pending[t] = nil
	v.flushAt[t] = false
	total := 0
	for _, f := range frames {
		total += f.PayloadLen() + vxlanOverhead
	}
	v.net.Carriers++
	p := &netsim.Packet{
		Dst:        t.UnderlayAddr,
		Proto:      netsim.ProtoUDP,
		SrcPort:    VXLANPort,
		DstPort:    VXLANPort,
		TTL:        64,
		PayloadLen: total,
		App:        carrier{frames: frames},
	}
	v.vm.NS.Output(p, []netsim.Charge{{Cat: cpuacct.Sys, D: v.vm.NS.Costs.SyscallTX.For(total)}})
}

// receive decapsulates a carrier and injects the inner frames into the
// local overlay bridge.
func (v *VTEP) receive(p *netsim.Packet) {
	c, ok := p.App.(carrier)
	if !ok {
		return
	}
	var decap time.Duration
	for _, f := range c.frames {
		decap += v.vm.NS.Costs.VXLANDecap.For(f.PayloadLen())
	}
	v.vm.NS.CPU.RunCosts([]netsim.Charge{{Cat: cpuacct.Soft, D: decap}}, func() {
		src := senderVTEP(v.net, p.Src)
		for _, f := range c.frames {
			// Learn the remote station for return traffic.
			if src != nil && !f.Src.IsZero() {
				v.net.fdb[f.Src] = src
			}
			// Inner frames enter through the VXLAN port so the local
			// bridge learns remote MACs behind it.
			v.vxIface.Deliver(f)
		}
	})
}

// senderVTEP resolves the VTEP that owns an underlay address.
func senderVTEP(n *Network, addr netsim.IPv4) *VTEP {
	for _, t := range n.vteps {
		if t.UnderlayAddr == addr {
			return t
		}
	}
	return nil
}

// learnLocal records a local station so remote VTEPs' frames for it are
// not re-flooded. The attachment calls this when a container joins.
func (v *VTEP) learnLocal(mac netsim.MAC) {
	v.net.fdb[mac] = v
}
