package core

import (
	"testing"

	"nestless/internal/netsim"
	"nestless/internal/sim"
	"nestless/internal/vmm"
)

var hostNet = netsim.MustPrefix(netsim.IP(192, 168, 122, 0), 24)

func newHost() (*sim.Engine, *vmm.Host, *Controller) {
	eng := sim.New(5)
	eng.MaxSteps = 20_000_000
	w := netsim.NewNet(eng)
	h := vmm.NewHost(w)
	h.AddBridge("virbr0", netsim.IP(192, 168, 122, 1), hostNet)
	return eng, h, NewController(h)
}

func TestProvisionPodNICProtocol(t *testing.T) {
	eng, h, ctrl := newHost()
	vm, _ := h.CreateVM(vmm.VMConfig{Name: "web", VCPUs: 5})

	var info NICInfo
	var perr error
	ctrl.ProvisionPodNIC(vm, "virbr0", func(i NICInfo, err error) { info, perr = i, err })
	eng.Run()
	if perr != nil {
		t.Fatal(perr)
	}
	// Step 3: the VMM reported an identifier the agent can use.
	if info.MAC.IsZero() {
		t.Fatal("no MAC reported")
	}
	if info.VM != "web" || info.Bridge != "virbr0" {
		t.Fatalf("info = %+v", info)
	}
	dev := vm.Devices()[info.DeviceID]
	if dev == nil {
		t.Fatal("device not attached")
	}
	if dev.NIC.Guest.Name != info.GuestIface {
		t.Fatalf("guest iface %q != reported %q", dev.NIC.Guest.Name, info.GuestIface)
	}
	// The management-plane conversation took simulated time.
	if eng.Now() == 0 {
		t.Fatal("protocol consumed no time")
	}
}

func TestProvisionPodNICUnknownBridge(t *testing.T) {
	eng, h, ctrl := newHost()
	vm, _ := h.CreateVM(vmm.VMConfig{Name: "web"})
	var perr error
	ctrl.ProvisionPodNIC(vm, "missing", func(_ NICInfo, err error) { perr = err })
	eng.Run()
	if perr == nil {
		t.Fatal("unknown bridge accepted")
	}
}

func TestReleasePodNIC(t *testing.T) {
	eng, h, ctrl := newHost()
	vm, _ := h.CreateVM(vmm.VMConfig{Name: "web"})
	var id string
	ctrl.ProvisionPodNIC(vm, "virbr0", func(i NICInfo, err error) { id = i.DeviceID })
	eng.Run()
	var rerr error
	ctrl.ReleaseDevice(vm, id, func(err error) { rerr = err })
	eng.Run()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(vm.Devices()) != 0 {
		t.Fatal("device still attached after release")
	}
}

func TestProvisionHostloProtocol(t *testing.T) {
	eng, h, ctrl := newHost()
	vm1, _ := h.CreateVM(vmm.VMConfig{Name: "vm1"})
	vm2, _ := h.CreateVM(vmm.VMConfig{Name: "vm2"})

	var hid string
	var eps []EndpointInfo
	var perr error
	ctrl.ProvisionHostlo([]*vmm.VM{vm1, vm2}, func(id string, e []EndpointInfo, err error) {
		hid, eps, perr = id, e, err
	})
	eng.Run()
	if perr != nil {
		t.Fatal(perr)
	}
	if h.Hostlo(hid) == nil || h.Hostlo(hid).Queues() != 2 {
		t.Fatalf("hostlo device wrong: id=%q", hid)
	}
	if len(eps) != 2 || eps[0].VM != "vm1" || eps[1].VM != "vm2" {
		t.Fatalf("endpoints = %+v", eps)
	}
	for _, ep := range eps {
		if ep.MAC.IsZero() || ep.Hostlo != hid {
			t.Fatalf("endpoint incomplete: %+v", ep)
		}
	}
	// Second pod gets its own device.
	var hid2 string
	ctrl.ProvisionHostlo([]*vmm.VM{vm1, vm2}, func(id string, _ []EndpointInfo, err error) { hid2 = id })
	eng.Run()
	if hid2 == hid {
		t.Fatal("hostlo devices must be per-pod")
	}
}

func TestProvisionHostloNeedsVMs(t *testing.T) {
	eng, _, ctrl := newHost()
	var perr error
	ctrl.ProvisionHostlo(nil, func(_ string, _ []EndpointInfo, err error) { perr = err })
	eng.Run()
	if perr == nil {
		t.Fatal("empty VM list accepted")
	}
}

func TestAllocPodIP(t *testing.T) {
	_, _, ctrl := newHost()
	a, subnet, err := ctrl.AllocPodIP("virbr0")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ctrl.AllocPodIP("virbr0")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("duplicate pod IPs")
	}
	if !subnet.Contains(a) || !subnet.Contains(b) {
		t.Fatal("pod IPs outside the bridge subnet")
	}
	if !hostNet.Contains(a) {
		t.Fatalf("pod IP %v not on the host bridge subnet", a)
	}
	if _, _, err := ctrl.AllocPodIP("missing"); err == nil {
		t.Fatal("unknown bridge accepted")
	}
}

func TestAllocPodIPExhaustion(t *testing.T) {
	_, _, ctrl := newHost()
	// /24 leaves 154 pod addresses above the .100 base.
	var err error
	for i := 0; i < 200; i++ {
		_, _, err = ctrl.AllocPodIP("virbr0")
		if err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("pool never exhausted on a /24")
	}
}
