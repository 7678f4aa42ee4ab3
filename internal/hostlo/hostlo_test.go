package hostlo

import (
	"testing"

	"nestless/internal/cpuacct"
	"nestless/internal/netsim"
	"nestless/internal/sim"
	"nestless/internal/virtio"
)

// podNet is the pod-localhost subnet the endpoints share.
var podNet = netsim.MustPrefix(netsim.IP(169, 254, 77, 0), 24)

type rig struct {
	eng  *sim.Engine
	net  *netsim.Net
	dev  *Device
	vms  []*netsim.NetNS
	nics []*virtio.NIC
}

// newRig builds a host with one Hostlo device and n VMs, each with an
// endpoint NIC at 169.254.77.(10+i).
func newRig(t *testing.T, n int) *rig {
	t.Helper()
	eng := sim.New(1)
	eng.MaxSteps = 20_000_000
	w := netsim.NewNet(eng)
	hostCPU := netsim.NewCPU(eng, "host", 1, netsim.BillTo(w.Acct, "host", ""))
	dev := New("hostlo0", hostCPU, w.Costs)
	r := &rig{eng: eng, net: w, dev: dev}
	for i := 0; i < n; i++ {
		name := "vm" + string(rune('1'+i))
		cpu := netsim.NewCPU(eng, name, 1, netsim.BillTo(w.Acct, "guest/"+name, "vm/"+name))
		vm := w.NewNS(name, cpu)
		vhost := netsim.NewCPU(eng, "vhost-"+name, 1, netsim.BillTo(w.Acct, "host", ""))
		b := NewBackend(dev)
		nic := virtio.New(virtio.Config{Name: "hlo0", MAC: w.NewMAC(), GuestNS: vm, Vhost: vhost, Backend: b})
		b.Bind(nic)
		nic.Guest.SetAddr(podNet.Host(10+i), podNet)
		nic.Guest.Up = true
		r.vms = append(r.vms, vm)
		r.nics = append(r.nics, nic)
	}
	return r
}

func TestHostloCrossVMDelivery(t *testing.T) {
	r := newRig(t, 2)
	var got int
	if _, err := r.vms[1].BindUDP(4000, func(p *netsim.Packet) { got = p.PayloadLen }); err != nil {
		t.Fatal(err)
	}
	s, _ := r.vms[0].BindUDP(0, nil)
	s.SendTo(podNet.Host(11), 4000, 200, nil)
	r.eng.Run()
	if got != 200 {
		t.Fatalf("cross-VM hostlo delivery got %d, want 200", got)
	}
	if r.dev.Reflected == 0 {
		t.Fatal("no reflections recorded")
	}
	// Reflect work lands on the host as sys time.
	if r.net.Acct.Usage("host").Of(cpuacct.Sys) == 0 {
		t.Error("hostlo reflect not billed to host sys")
	}
}

func TestReflectAllEchoesToSender(t *testing.T) {
	r := newRig(t, 2)
	if _, err := r.vms[1].BindUDP(4000, func(p *netsim.Packet) {}); err != nil {
		t.Fatal(err)
	}
	s, _ := r.vms[0].BindUDP(0, nil)
	s.SendTo(podNet.Host(11), 4000, 64, nil)
	r.eng.Run()
	// The sender's own endpoint received its frame back and dropped it
	// on the MAC check (plus it heard the ARP broadcasts).
	if r.nics[0].Guest.RXPackets == 0 {
		t.Fatal("reflect-all did not echo to the sender's queue")
	}
	if r.vms[0].Drops.BadMAC == 0 {
		t.Fatal("sender should drop its own reflected unicast")
	}
}

func TestFilterMACUnicastGoesToOwnerOnly(t *testing.T) {
	r := newRig(t, 3)
	r.dev.SetMode(FilterMAC)
	var got [3]int
	for i := range r.vms {
		i := i
		if _, err := r.vms[i].BindUDP(4000, func(p *netsim.Packet) { got[i]++ }); err != nil {
			t.Fatal(err)
		}
	}
	s, _ := r.vms[0].BindUDP(0, nil)
	s.SendTo(podNet.Host(11), 4000, 64, nil) // to vm2
	r.eng.Run()
	if got[1] != 1 {
		t.Fatalf("vm2 got %d datagrams, want 1", got[1])
	}
	if got[2] != 0 {
		t.Fatal("vm3 received a unicast not addressed to it")
	}
	// The sender's data frame must not have come back (only ARP
	// broadcast flooding is allowed); BadMAC drops stay at zero because
	// FilterMAC never reflects unicast to non-owners.
	if r.vms[2].Drops.BadMAC != 0 {
		t.Fatal("FilterMAC leaked unicast to a bystander")
	}
}

func TestThreeVMFanoutCosts(t *testing.T) {
	// With reflect-all and N queues, each data frame is delivered N
	// times; host reflect work should scale with fan-out.
	run := func(n int) uint64 {
		r := newRig(t, n)
		if _, err := r.vms[1].BindUDP(4000, func(p *netsim.Packet) {}); err != nil {
			t.Fatal(err)
		}
		s, _ := r.vms[0].BindUDP(0, nil)
		s.SendTo(podNet.Host(11), 4000, 64, nil)
		r.eng.Run()
		return r.dev.Reflected
	}
	two, four := run(2), run(4)
	if four <= two {
		t.Fatalf("fan-out did not grow with queues: 2VM=%d 4VM=%d", two, four)
	}
}

func TestStreamOverHostlo(t *testing.T) {
	r := newRig(t, 2)
	const total = 256 * 1024
	var got int
	if _, err := r.vms[1].ListenStream(6000, func(c *netsim.StreamConn) {
		c.OnMessage = func(size int, _ interface{}, _ sim.Time) { got += size }
	}); err != nil {
		t.Fatal(err)
	}
	r.vms[0].DialStream(podNet.Host(11), 6000, func(c *netsim.StreamConn) {
		for i := 0; i < 8; i++ {
			c.SendMessage(total/8, nil)
		}
	})
	r.eng.Run()
	if got != total {
		t.Fatalf("stream over hostlo: got %d, want %d", got, total)
	}
}

func TestRemoveQueueStopsDelivery(t *testing.T) {
	r := newRig(t, 2)
	var got int
	if _, err := r.vms[1].BindUDP(4000, func(p *netsim.Packet) { got++ }); err != nil {
		t.Fatal(err)
	}
	s, _ := r.vms[0].BindUDP(0, nil)
	s.SendTo(podNet.Host(11), 4000, 64, nil)
	r.eng.Run()
	if got != 1 {
		t.Fatalf("pre-removal delivery = %d, want 1", got)
	}
	// Detach vm2's queue; further traffic must not arrive.
	if r.dev.Queues() != 2 {
		t.Fatalf("queues = %d, want 2", r.dev.Queues())
	}
	backend := r.nics[1].Backend().(*Backend)
	backend.Unbind()
	if r.dev.Queues() != 1 {
		t.Fatalf("queues after unbind = %d, want 1", r.dev.Queues())
	}
	s.SendTo(podNet.Host(11), 4000, 64, nil)
	r.eng.Run()
	if got != 1 {
		t.Fatalf("delivery after queue removal: got %d, want 1", got)
	}
}

func TestModeString(t *testing.T) {
	if ReflectAll.String() != "reflect-all" || FilterMAC.String() != "filter-mac" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatal("unknown mode name wrong")
	}
}

func TestBackendDescribeAndMAC(t *testing.T) {
	r := newRig(t, 1)
	b := r.nics[0].Backend().(*Backend)
	if b.Describe() != "hostlo:hostlo0" {
		t.Fatalf("Describe = %q", b.Describe())
	}
	if b.EndpointMAC() != r.nics[0].Guest.MAC {
		t.Fatal("EndpointMAC mismatch")
	}
}
