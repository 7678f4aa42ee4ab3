// Package hostlo implements the paper's Hostlo device (§4): a host-side
// TAP driver modified to act as a loopback interface that can be
// multiplexed among several VMs. The device keeps one RX/TX queue pair
// per served VM and reflects every Ethernet frame received on any queue
// to all of its queues, so each VM's endpoint NIC behaves as one shared
// pod-localhost segment backed by the host.
//
// The reflect work runs in the host kernel (the paper implements it as a
// modified TAP driver); the simulator bills it as host sys time —
// matching §5.3.4's observation that the module's CPU time surfaces in
// the host kernel alongside vhost.
package hostlo

import (
	"fmt"
	"time"

	"nestless/internal/cpuacct"
	"nestless/internal/faults"
	"nestless/internal/netsim"
)

// Mode selects the frame fan-out policy.
type Mode int

// Fan-out policies.
const (
	// ReflectAll is the paper's semantics: every frame is sent back to
	// all queues, including the sender's (endpoints filter by MAC).
	ReflectAll Mode = iota
	// FilterMAC is the ablation variant: unicast frames go only to the
	// queue whose endpoint owns the destination MAC; broadcast still
	// fans out. Cheaper on the host, but requires the driver to learn
	// endpoint MACs — complexity the paper's driver avoids.
	FilterMAC
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ReflectAll:
		return "reflect-all"
	case FilterMAC:
		return "filter-mac"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Endpoint is the consumer of one queue: the virtio NIC of a served VM.
type Endpoint interface {
	// InjectToGuest pushes a reflected frame toward the VM.
	InjectToGuest(f *netsim.Frame)
	// EndpointMAC returns the MAC of the in-VM endpoint interface
	// (used by the FilterMAC ablation).
	EndpointMAC() netsim.MAC
}

// Device is one Hostlo instance: a multi-queue loopback TAP on the host.
type Device struct {
	name    string
	hostCPU *netsim.CPU
	costs   *netsim.CostModel
	mode    Mode

	queues []*Queue
	free   []*fanout // idle fan-outs for reuse

	// Faults, when set, lets the injector stall or drop traffic at the
	// device's queues (point "hostlo/<name>"). Wired by the VMM when the
	// device is created.
	Faults *faults.Injector

	// Reflected counts frame deliveries into queues (diagnostics).
	Reflected uint64
	// Dropped counts frames discarded by injected queue faults.
	Dropped uint64
}

// New creates a Hostlo device whose reflect work runs on hostCPU.
func New(name string, hostCPU *netsim.CPU, costs *netsim.CostModel) *Device {
	return &Device{name: name, hostCPU: hostCPU, costs: costs, mode: ReflectAll}
}

// Name returns the device name (e.g. "hostlo0").
func (d *Device) Name() string { return d.name }

// Mode returns the fan-out policy.
func (d *Device) Mode() Mode { return d.mode }

// SetMode selects the fan-out policy (ablation hook).
func (d *Device) SetMode(m Mode) { d.mode = m }

// Queues returns the number of attached queue pairs.
func (d *Device) Queues() int { return len(d.queues) }

// Queue is one RX/TX queue pair, owned by one VM's endpoint NIC.
type Queue struct {
	dev *Device
	vm  string
	ep  Endpoint

	// RX counts frames this queue received from its VM; TX counts
	// frames reflected into it.
	RX, TX uint64
}

// AddQueue attaches a queue pair for the named VM — the ioctl the VMM
// issues when multiplexing the device into another VM.
func (d *Device) AddQueue(vm string, ep Endpoint) *Queue {
	q := &Queue{dev: d, vm: vm, ep: ep}
	d.queues = append(d.queues, q)
	return q
}

// RemoveQueue detaches a queue (VM released its endpoint).
func (d *Device) RemoveQueue(q *Queue) {
	for i, x := range d.queues {
		if x == q {
			d.queues = append(d.queues[:i], d.queues[i+1:]...)
			return
		}
	}
}

// VM returns the owning VM's name.
func (q *Queue) VM() string { return q.vm }

// Receive ingests a frame arriving from the queue's VM (called on the
// vhost completion path) and reflects it per the device policy. Each
// reflected copy costs host-kernel time proportional to the fan-out —
// this is why Hostlo's throughput trails batched overlays while its
// latency beats them (Fig. 10).
func (q *Queue) Receive(f *netsim.Frame) {
	d := q.dev
	if inj := d.Faults; inj != nil {
		point := "hostlo/" + d.name
		if s := inj.Stall(point); s > 0 {
			// The queue is wedged: the driver parks the frame and a
			// watchdog kicks the reflect once the stall clears.
			d.hostCPU.Eng.After(s, func() { q.reflect(f) })
			return
		}
		if inj.FrameFate(point) == faults.FateDrop {
			d.Dropped++
			return
		}
	}
	q.reflect(f)
}

// reflect fans the frame out per the device policy.
func (q *Queue) reflect(f *netsim.Frame) {
	d := q.dev
	q.RX++
	size := f.PayloadLen()

	fo := d.getFanout()
	targets := fo.targets
	switch d.mode {
	case FilterMAC:
		if f.Dst.IsBroadcast() {
			for _, t := range d.queues {
				if t != q {
					targets = append(targets, t)
				}
			}
		} else {
			for _, t := range d.queues {
				if t.ep.EndpointMAC() == f.Dst {
					targets = append(targets, t)
					break
				}
			}
		}
	default:
		// ReflectAll: every queue, including the sender's. Peer queues
		// are served first so the sender's echo copy never delays the
		// actual delivery.
		for _, t := range d.queues {
			if t != q {
				targets = append(targets, t)
			}
		}
		targets = append(targets, q)
	}

	if len(targets) == 0 {
		d.putFanout(fo)
		return
	}
	if rec := d.hostCPU.Rec; rec != nil {
		rec.Instant("hostlo/"+d.name, "reflect", "fanout", float64(len(targets)))
		if f.Packet != nil && f.Packet.Flow != 0 {
			rec.FlowHop(f.Packet.Flow, "hostlo/"+d.name)
		}
	}
	// One copy per queue, charged incrementally: early queues receive
	// their frame without waiting for the rest of the fan-out.
	fo.f, fo.targets, fo.per = f, targets, d.costs.HostloReflect.For(size)
	d.hostCPU.RunCosts([]netsim.Charge{{Cat: cpuacct.Sys, D: fo.per}}, fo.step)
}

// fanout is one frame's reflect in progress: the queues it goes to, in
// order, and how many have been served. Fan-outs are recycled per
// device, each with its step callback bound once, so a reflect
// allocates no closure, target list or step chain.
type fanout struct {
	d       *Device
	f       *netsim.Frame
	per     time.Duration // reflect cost per copy
	targets []*Queue
	next    int
	step    func()
}

func (d *Device) getFanout() *fanout {
	if last := len(d.free) - 1; last >= 0 {
		fo := d.free[last]
		d.free = d.free[:last]
		return fo
	}
	fo := &fanout{d: d}
	fo.step = fo.run
	return fo
}

func (d *Device) putFanout(fo *fanout) {
	clear(fo.targets)
	fo.f, fo.targets, fo.next = nil, fo.targets[:0], 0
	d.free = append(d.free, fo)
}

// run ends one copy's reflect charge: the next target gets its copy,
// and the following copy's charge starts.
func (fo *fanout) run() {
	d := fo.d
	t := fo.targets[fo.next]
	fo.next++
	t.TX++
	d.Reflected++
	t.ep.InjectToGuest(d.hostCPU.Net().CloneFrame(fo.f))
	if fo.next < len(fo.targets) {
		d.hostCPU.RunCosts([]netsim.Charge{{Cat: cpuacct.Sys, D: fo.per}}, fo.step)
		return
	}
	d.putFanout(fo)
}
