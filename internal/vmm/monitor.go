package vmm

import (
	"fmt"

	"nestless/internal/cpuacct"
	"nestless/internal/hostlo"
	"nestless/internal/netsim"
	"nestless/internal/virtio"
)

// Monitor is the VM's QMP-like side-channel management interface. All
// commands are asynchronous: they consume simulated management-plane
// time and deliver their result through a callback, like QMP over a
// UNIX socket.
//
// Supported commands:
//
//	netdev_add    id=<nd> type=bridge br=<bridge>
//	netdev_add    id=<nd> type=hostlo dev=<hostlo>
//	netdev_del    id=<nd>
//	hostlo_create id=<dev>                       (host-wide, any VM's monitor)
//	hostlo_delete id=<dev>                       (host-wide, fails while queues remain)
//	device_add    id=<dev> driver=virtio-net netdev=<nd>
//	device_del    id=<dev>
//	query-netdev
//
// device_add replies with the new device's "mac" — the identifier the
// orchestrator forwards to its in-VM agent (§3.1 step 3, §4.1 step 3).
//
// Every command is a fault point ("qmp/<cmd>"): the injector can fail
// it outright or stall its dispatch, which is how the chaos suite
// exercises the orchestrator's retry/timeout/fallback paths.
type Monitor struct {
	vm *VM
}

// Result is a command reply payload.
type Result map[string]string

// Execute dispatches one management command. reply may be nil.
func (m *Monitor) Execute(cmd string, args map[string]string, reply func(Result, error)) {
	vm := m.vm
	h := vm.Host
	// Control-plane telemetry: one span per QMP command, from dispatch to
	// reply (OpBegin is nil-safe when telemetry is off).
	op := h.Net.Rec.OpBegin("vmm/"+vm.Name, cmd)
	done := func(r Result, err error) {
		op.End(err)
		if reply != nil {
			reply(r, err)
		}
	}
	rng := h.Eng.Rand()
	inj := h.Net.Faults
	dispatch := func() {
		if err := inj.OpFail("qmp/" + cmd); err != nil {
			done(nil, err)
			return
		}
		switch cmd {
		case "netdev_add":
			done(m.netdevAdd(args))
		case "netdev_del":
			done(m.netdevDel(args))
		case "hostlo_create":
			done(m.hostloCreate(args))
		case "hostlo_delete":
			done(m.hostloDelete(args))
		case "device_add":
			m.deviceAdd(args, done)
		case "device_del":
			done(m.deviceDel(args))
		case "query-netdev":
			r := Result{}
			for id, nd := range vm.netdevs {
				r[id] = nd.kind
			}
			done(r, nil)
		default:
			done(nil, fmt.Errorf("vmm: unknown command %q", cmd))
		}
	}
	// QMP dispatch costs a little host CPU before the command runs.
	h.CPU.Run(cpuacct.Sys, jittered(rng, qmpDispatchMean, qmpDispatchJitter), func() {
		if d := inj.OpDelay("qmp/" + cmd); d > 0 {
			// The monitor socket wedges: the command sits undispatched
			// long enough for the orchestrator's watchdog to matter.
			h.Eng.After(d, dispatch)
			return
		}
		dispatch()
	})
}

func (m *Monitor) netdevAdd(args map[string]string) (Result, error) {
	vm := m.vm
	id := args["id"]
	if id == "" {
		return nil, fmt.Errorf("vmm: netdev_add needs id")
	}
	if _, dup := vm.netdevs[id]; dup {
		return nil, fmt.Errorf("vmm: netdev %q exists", id)
	}
	switch args["type"] {
	case "bridge":
		br := args["br"]
		if vm.Host.Bridge(br) == nil {
			return nil, fmt.Errorf("vmm: no bridge %q", br)
		}
		vm.netdevs[id] = &netdevSpec{id: id, kind: "bridge", bridge: br}
	case "hostlo":
		dev := args["dev"]
		if vm.Host.Hostlo(dev) == nil {
			return nil, fmt.Errorf("vmm: no hostlo device %q", dev)
		}
		vm.netdevs[id] = &netdevSpec{id: id, kind: "hostlo", hostloD: dev}
	default:
		return nil, fmt.Errorf("vmm: unknown netdev type %q", args["type"])
	}
	return Result{"id": id}, nil
}

func (m *Monitor) netdevDel(args map[string]string) (Result, error) {
	vm := m.vm
	id := args["id"]
	if _, ok := vm.netdevs[id]; !ok {
		return nil, fmt.Errorf("vmm: no netdev %q", id)
	}
	for _, d := range vm.devices {
		if d.Netdev == id {
			return nil, fmt.Errorf("vmm: netdev %q in use by device %q", id, d.ID)
		}
	}
	delete(vm.netdevs, id)
	return Result{"id": id}, nil
}

func (m *Monitor) hostloCreate(args map[string]string) (Result, error) {
	h := m.vm.Host
	id := args["id"]
	if id == "" {
		return nil, fmt.Errorf("vmm: hostlo_create needs id")
	}
	if _, dup := h.hostlos[id]; dup {
		return nil, fmt.Errorf("vmm: hostlo %q exists", id)
	}
	dev := hostlo.New(id, h.CPU, h.Net.Costs)
	dev.Faults = h.Net.Faults
	h.hostlos[id] = dev
	return Result{"id": id}, nil
}

func (m *Monitor) hostloDelete(args map[string]string) (Result, error) {
	h := m.vm.Host
	id := args["id"]
	dev, ok := h.hostlos[id]
	if !ok {
		return nil, fmt.Errorf("vmm: no hostlo %q", id)
	}
	if n := dev.Queues(); n > 0 {
		return nil, fmt.Errorf("vmm: hostlo %q still has %d queues", id, n)
	}
	delete(h.hostlos, id)
	return Result{"id": id}, nil
}

// deviceAdd hot-plugs a virtio-net device: QEMU attach work on the host,
// then the guest's PCI probe and driver bring-up, then the guest OS
// hot-plug notification fires and the reply carries the MAC.
func (m *Monitor) deviceAdd(args map[string]string, done func(Result, error)) {
	vm := m.vm
	h := vm.Host
	id := args["id"]
	if id == "" {
		done(nil, fmt.Errorf("vmm: device_add needs id"))
		return
	}
	if _, dup := vm.devices[id]; dup {
		done(nil, fmt.Errorf("vmm: device %q exists", id))
		return
	}
	if d := args["driver"]; d != "" && d != "virtio-net" {
		done(nil, fmt.Errorf("vmm: unsupported driver %q", d))
		return
	}
	nd, ok := vm.netdevs[args["netdev"]]
	if !ok {
		done(nil, fmt.Errorf("vmm: no netdev %q", args["netdev"]))
		return
	}

	rng := h.Eng.Rand()
	h.CPU.Run(cpuacct.Sys, jittered(rng, qemuAttachMean, qemuAttachJitter), func() {
		vhost := h.Net.NewCPU("vhost-"+vm.Name+"-"+id, 1, "host", "")
		vhost.Station.SetWakeup(WorkerWakeMean, WorkerWakeJitter, WakeThreshold)
		dev := &Device{ID: id, Netdev: nd.id}
		cfg := virtio.Config{
			Name:    vm.nextIface(),
			MAC:     h.Net.NewMAC(),
			GuestNS: vm.NS,
			Vhost:   vhost,
		}
		switch nd.kind {
		case "bridge":
			b := virtio.NewTAPBackend(h.NS, h.nextTAP())
			cfg.Backend = b
			dev.NIC = virtio.New(cfg)
			b.Bind(dev.NIC)
			h.Bridge(nd.bridge).AddPort(b.TAP)
		case "hostlo":
			b := hostlo.NewBackend(h.Hostlo(nd.hostloD))
			cfg.Backend = b
			dev.NIC = virtio.New(cfg)
			b.Bind(dev.NIC)
			dev.Hostlo = b
		}
		vm.devices[id] = dev
		// Guest side: PCI rescan + virtio driver probe on the vCPU.
		vm.CPU.Run(cpuacct.Sys, jittered(rng, guestProbeMean, guestProbeJitter), func() {
			dev.NIC.Guest.Up = true
			if vm.OnHotplug != nil {
				vm.OnHotplug(dev)
			}
			done(Result{"id": id, "mac": dev.MAC().String(), "iface": dev.NIC.Guest.Name}, nil)
		})
	})
}

func (m *Monitor) deviceDel(args map[string]string) (Result, error) {
	vm := m.vm
	id := args["id"]
	dev, ok := vm.devices[id]
	if !ok {
		return nil, fmt.Errorf("vmm: no device %q", id)
	}
	delete(vm.devices, id)
	// Detach host side.
	switch b := dev.NIC.Backend().(type) {
	case *virtio.TAPBackend:
		for _, br := range vm.Host.bridges {
			br.RemovePort(b.TAP)
		}
		vm.Host.NS.RemoveIface(b.TAP.Name)
	case *hostlo.Backend:
		b.Unbind()
	}
	// Remove the guest interface from whichever namespace holds it now.
	if ns := dev.NIC.Guest.NS; ns != nil {
		ns.RemoveIface(dev.NIC.Guest.Name)
	}
	// This control plane pairs exactly one netdev with each hot-plugged
	// device, so unplugging the device also retires its backend spec —
	// otherwise every release would need a follow-up netdev_del and a
	// mid-teardown fault could strand the spec forever.
	delete(vm.netdevs, dev.Netdev)
	return Result{"id": id}, nil
}

// PlugBridgeNIC is the synchronous convenience used at VM boot to attach
// the primary NIC (the paper's VMs start with one bridge-backed virtio
// NIC). It performs the same wiring as netdev_add + device_add without
// management-plane latency, configures the address, and installs the
// default route via the bridge gateway.
func (vm *VM) PlugBridgeNIC(bridgeName string, addr netsim.IPv4, subnet netsim.Prefix) *Device {
	h := vm.Host
	br := h.Bridge(bridgeName)
	if br == nil {
		panic(fmt.Sprintf("vmm: no bridge %q", bridgeName))
	}
	id := fmt.Sprintf("boot-%s", vm.nextBootID())
	vhost := h.Net.NewCPU("vhost-"+vm.Name+"-"+id, 1, "host", "")
	vhost.Station.SetWakeup(WorkerWakeMean, WorkerWakeJitter, WakeThreshold)
	b := virtio.NewTAPBackend(h.NS, h.nextTAP())
	nic := virtio.New(virtio.Config{
		Name:    vm.nextIface(),
		MAC:     h.Net.NewMAC(),
		GuestNS: vm.NS,
		Vhost:   vhost,
		Backend: b,
	})
	b.Bind(nic)
	br.AddPort(b.TAP)
	nic.Guest.SetAddr(addr, subnet)
	nic.Guest.Up = true
	vm.NS.AddRoute(netsim.Route{
		Dst: netsim.MustPrefix(netsim.IPv4{}, 0),
		Via: br.Iface().Addr,
		Dev: nic.Guest.Name,
	})
	dev := &Device{ID: id, Netdev: "boot", NIC: nic}
	vm.devices[id] = dev
	return dev
}

func (vm *VM) nextBootID() string {
	return fmt.Sprintf("%s-%d", vm.Name, len(vm.devices))
}
