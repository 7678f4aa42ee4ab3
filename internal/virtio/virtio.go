// Package virtio models virtio-net devices with vhost backends, the way
// the paper's VMs attach to the host network (§5.1: "all network
// interfaces in the VMs are based on virtio and use Vhost in their
// backend").
//
// A NIC is a guest-side interface plus a vhost worker. Transmits from the
// guest pay the virtio descriptor-publish and kick (VM exit) costs on the
// guest's vCPU, then the vhost worker — a host-kernel thread whose time
// the host bills as sys on behalf of the VM — moves the frame to the
// host-side backend: a TAP on a host bridge for ordinary connectivity, or
// a Hostlo queue for the paper's multiplexed loopback. The reverse path
// mirrors this.
package virtio

import (
	"fmt"

	"nestless/internal/cpuacct"
	"nestless/internal/netsim"
)

// Backend is the host side of a NIC: where guest-transmitted frames land.
type Backend interface {
	// FromGuest receives a frame the vhost worker dequeued from the
	// guest TX ring; it runs on the vhost completion path.
	FromGuest(f *netsim.Frame)
	// Describe names the backend for diagnostics.
	Describe() string
}

// Queue is a virtqueue: a bounded descriptor ring. The simulator uses it
// for occupancy accounting and overload behaviour — a full ring drops the
// frame, as a saturated virtio device does when the guest outruns vhost.
type Queue struct {
	cap     int
	ring    []*netsim.Frame
	Dropped uint64
	MaxUsed int
}

// NewQueue returns a ring with the given descriptor capacity.
func NewQueue(capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue{cap: capacity}
}

// Push enqueues a frame; it reports false (and counts a drop) on a full
// ring.
func (q *Queue) Push(f *netsim.Frame) bool {
	if len(q.ring) >= q.cap {
		q.Dropped++
		return false
	}
	q.ring = append(q.ring, f)
	if len(q.ring) > q.MaxUsed {
		q.MaxUsed = len(q.ring)
	}
	return true
}

// Pop dequeues the oldest frame, or nil.
func (q *Queue) Pop() *netsim.Frame {
	if len(q.ring) == 0 {
		return nil
	}
	f := q.ring[0]
	copy(q.ring, q.ring[1:])
	q.ring = q.ring[:len(q.ring)-1]
	return f
}

// Len returns current occupancy.
func (q *Queue) Len() int { return len(q.ring) }

// Cap returns the ring capacity.
func (q *Queue) Cap() int { return q.cap }

// DefaultRing is the ring size used for VM NICs (large enough that
// windowed stream traffic never overflows, as on a well-tuned vhost).
const DefaultRing = 4096

// NIC is one virtio-net device: guest interface + vhost worker + host
// backend.
type NIC struct {
	Name  string
	Guest *netsim.Iface

	vhost   *netsim.CPU
	costs   *netsim.CostModel
	backend Backend
	net     *netsim.Net // hop pool

	tx, rx *Queue

	// guestCPU runs RX-side virtio processing (it is the guest
	// namespace's CPU; kept here so injection works even while the
	// interface migrates between namespaces, as BrFusion does).
	guestCPU *netsim.CPU
}

// Config carries NIC construction parameters.
type Config struct {
	Name    string
	MAC     netsim.MAC
	GuestNS *netsim.NetNS // namespace that initially owns the interface
	Vhost   *netsim.CPU   // the vhost worker thread
	Backend Backend
	Ring    int // descriptor ring size; 0 = DefaultRing
}

// New creates a virtio NIC and installs its guest interface (down until
// configured) into cfg.GuestNS.
func New(cfg Config) *NIC {
	ring := cfg.Ring
	if ring == 0 {
		ring = DefaultRing
	}
	n := &NIC{
		Name:     cfg.Name,
		vhost:    cfg.Vhost,
		costs:    cfg.GuestNS.Costs,
		backend:  cfg.Backend,
		net:      cfg.GuestNS.Net,
		tx:       NewQueue(ring),
		rx:       NewQueue(ring),
		guestCPU: cfg.GuestNS.CPU,
	}
	iface := cfg.GuestNS.AddIface(cfg.Name, cfg.MAC, cfg.GuestNS.Costs.EthMTU)
	iface.SetLink(guestLink{nic: n})
	n.Guest = iface
	return n
}

// SetGuestCPU rebinds RX-side processing to a different CPU context —
// used when the interface moves into a pod namespace whose billing
// entity differs.
func (n *NIC) SetGuestCPU(cpu *netsim.CPU) { n.guestCPU = cpu }

// Backend returns the host-side backend.
func (n *NIC) Backend() Backend { return n.backend }

// TXDropped reports transmit-ring overflows.
func (n *NIC) TXDropped() uint64 { return n.tx.Dropped }

// guestLink is the transmit side seen by the guest stack.
type guestLink struct{ nic *NIC }

func (l guestLink) Send(src *netsim.Iface, f *netsim.Frame) {
	n := l.nic
	ns := src.NS
	if ns == nil {
		return
	}
	size := f.PayloadLen()
	// Publish the descriptor and kick: guest vCPU time.
	charges := []netsim.Charge{
		{Cat: cpuacct.Sys, D: n.costs.VirtioTX.For(size)},
		{Cat: cpuacct.Sys, D: n.costs.VirtioKick.For(0)},
	}
	h := ns.Net.NewHop(hopTXPush)
	h.Arg, h.Frame, h.N = n, f, size
	ns.CPU.RunCosts(charges, h.Fire())
}

// hopTXPush publishes Frame on the TX ring of the NIC in Arg; vhost then
// dequeues it (N payload bytes, host-kernel time) for the backend.
func hopTXPush(h *netsim.Hop) {
	n := h.Arg.(*NIC)
	if !n.tx.Push(h.Frame) {
		return // ring overflow: frame lost
	}
	n.vhost.Run(cpuacct.Sys, n.costs.Vhost.For(h.N), h.Then(hopTXPop))
}

func hopTXPop(h *netsim.Hop) {
	n := h.Arg.(*NIC)
	if g := n.tx.Pop(); g != nil {
		n.backend.FromGuest(g)
	}
}

// InjectToGuest is called by the backend to push a frame toward the
// guest: vhost moves it into the RX ring, then the guest pays the virtio
// receive cost and the frame enters the guest interface.
func (n *NIC) InjectToGuest(f *netsim.Frame) {
	h := n.net.NewHop(hopRXPush)
	h.Arg, h.Frame, h.N = n, f, f.PayloadLen()
	n.vhost.Run(cpuacct.Sys, n.costs.Vhost.For(h.N), h.Fire())
}

// hopRXPush moves Frame into the RX ring of the NIC in Arg; the guest
// then pays the virtio receive cost (N payload bytes) and the frame
// enters the guest interface.
func hopRXPush(h *netsim.Hop) {
	n := h.Arg.(*NIC)
	if !n.rx.Push(h.Frame) {
		return
	}
	n.guestCPU.RunCosts([]netsim.Charge{{Cat: cpuacct.Sys, D: n.costs.VirtioRX.For(h.N)}}, h.Then(hopRXPop))
}

func hopRXPop(h *netsim.Hop) {
	n := h.Arg.(*NIC)
	if g := n.rx.Pop(); g != nil {
		n.Guest.Deliver(g)
	}
}

// TAPBackend bridges a NIC to a TAP interface in the host namespace —
// typically enslaved to a host bridge, which is how QEMU attaches VM
// NICs in the paper's setup.
type TAPBackend struct {
	TAP *netsim.Iface
	nic *NIC
}

// NewTAPBackend creates the host-side TAP for a NIC inside hostNS. The
// caller typically enslaves the returned interface to a bridge. Wire the
// backend into the NIC via Config.Backend by constructing in two steps:
//
//	b := virtio.NewTAPBackend(hostNS, "vnet3")
//	nic := virtio.New(virtio.Config{..., Backend: b})
//	b.Bind(nic)
func NewTAPBackend(hostNS *netsim.NetNS, name string) *TAPBackend {
	b := &TAPBackend{}
	tap := hostNS.AddIface(name, hostNS.Net.NewMAC(), hostNS.Costs.EthMTU)
	tap.SetLink(tapLink{b: b})
	tap.Up = true
	b.TAP = tap
	return b
}

// Bind attaches the backend to its NIC (frames arriving at the TAP flow
// to this NIC's guest side).
func (b *TAPBackend) Bind(n *NIC) { b.nic = n }

// FromGuest delivers a guest frame into the host stack via the TAP.
func (b *TAPBackend) FromGuest(f *netsim.Frame) {
	// The TAP receive path: softirq + bridge hook run in Deliver.
	b.TAP.Deliver(f)
}

// Describe names the backend.
func (b *TAPBackend) Describe() string {
	return fmt.Sprintf("tap:%s", b.TAP.Name)
}

// tapLink carries frames the host transmits out the TAP toward the guest.
type tapLink struct{ b *TAPBackend }

func (l tapLink) Send(src *netsim.Iface, f *netsim.Frame) {
	if l.b.nic == nil {
		return
	}
	l.b.nic.InjectToGuest(f)
}
