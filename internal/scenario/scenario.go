// Package scenario wires the paper's experiment topologies end to end:
// the client↔containerized-server setups of §5.2 (NAT, BrFusion, NoCont)
// and the intra-pod container-to-container setups of §5.3 (SameNode,
// Hostlo, cross-VM NAT, Docker Overlay). Benchmarks, commands and
// examples all build on these so every figure runs against the same
// plumbing.
package scenario

import (
	"fmt"

	"nestless/internal/brfusion"
	"nestless/internal/container"
	"nestless/internal/core"
	"nestless/internal/cpuacct"
	"nestless/internal/faults"
	"nestless/internal/kube"
	"nestless/internal/netsim"
	"nestless/internal/sim"
	"nestless/internal/telemetry"
	"nestless/internal/vmm"
)

// Address plan shared by all scenarios (the paper's QEMU defaults).
var (
	HostBridgeNet = netsim.MustPrefix(netsim.IP(192, 168, 122, 0), 24)
	HostGateway   = netsim.IP(192, 168, 122, 1)
	ClientNet     = netsim.MustPrefix(netsim.IP(10, 0, 2, 0), 24)
	ClientAddr    = netsim.IP(10, 0, 2, 2)
	ClientGW      = netsim.IP(10, 0, 2, 1)
)

// Mode selects the server-side networking of a client↔server scenario.
type Mode string

// Server-side modes (§5.1 methodology).
const (
	// ModeNAT is vanilla nested virtualization: the server container
	// sits behind the VM's docker0 bridge + NAT with published ports.
	ModeNAT Mode = "nat"
	// ModeBrFusion gives the server pod a dedicated hot-plugged NIC on
	// the host bridge.
	ModeBrFusion Mode = "brfusion"
	// ModeNoCont runs the server natively in the VM — the paper's
	// baseline and BrFusion's performance target.
	ModeNoCont Mode = "nocont"
)

// Base is the physical substrate every scenario starts from: host,
// bridge, external client behind a wire, and the management plane.
type Base struct {
	Eng     *sim.Engine
	Net     *netsim.Net
	Host    *vmm.Host
	Ctrl    *core.Controller
	Cluster *kube.Cluster

	// Client is the load generator's namespace, on dedicated CPUs,
	// linked to the host bridge via NAT (§2, Fig. 2 methodology).
	Client *netsim.NetNS

	// Rec is the scenario's telemetry recorder (nil = telemetry off).
	Rec *telemetry.Recorder
	// Faults is the scenario's fault injector (nil = injection off).
	Faults *faults.Injector
}

// Config parameterizes scenario construction. The zero value (plus a
// seed) reproduces the plain constructors.
type Config struct {
	Seed int64
	// Rec enables telemetry when non-nil.
	Rec *telemetry.Recorder
	// Faults enables fault injection when non-nil.
	Faults *faults.Schedule
}

// NewBaseCfg builds just the host + client substrate from a Config,
// with no nodes or pods. Every topology starts from it; chaos tests use
// it directly to keep a handle on the world even when a faulted
// deployment fails, so they can still audit it for leaks.
func NewBaseCfg(cfg Config) *Base {
	seed, rec := cfg.Seed, cfg.Rec
	eng := sim.New(seed)
	eng.MaxSteps = 2_000_000_000
	w := netsim.NewNet(eng)
	// Telemetry attaches before any CPU or namespace exists, so every
	// station created below is instrumented.
	w.Rec = rec
	rec.BindEngine(eng)
	// The injector forks its RNG at construction, so arming it before
	// the topology is built keeps fault rolls off the main stream.
	var inj *faults.Injector
	if cfg.Faults != nil {
		inj = faults.New(eng, cfg.Faults, rec)
		w.Faults = inj
	}
	h := vmm.NewHost(w)
	h.AddBridge("virbr0", HostGateway, HostBridgeNet)
	ctrl := core.NewController(h)

	clientCPU := w.NewCPU("client", 1, "client", "")
	clientCPU.Station.SetWakeup(vmm.WorkerWakeMean, vmm.WorkerWakeJitter, vmm.WakeThreshold)
	client := w.NewNS("client", clientCPU)
	ci := client.AddIface("eth0", w.NewMAC(), w.Costs.EthMTU)
	ci.SetAddr(ClientAddr, ClientNet)
	hi := h.NS.AddIface("cli0", w.NewMAC(), w.Costs.EthMTU)
	hi.SetAddr(ClientGW, ClientNet)
	netsim.NewWire(eng, "client-wire", ci, hi, w.Costs.WireSerialize, w.Costs.WireDelay)
	client.AddRoute(netsim.Route{Dst: netsim.MustPrefix(netsim.IPv4{}, 0), Via: ClientGW, Dev: "eth0"})
	// The client is NAT-ed to the host's bridge domain.
	h.NS.Filter.AddMasquerade(netsim.SNATRule{SrcNet: ClientNet, OutDev: "virbr0"})

	return &Base{Eng: eng, Net: w, Host: h, Ctrl: ctrl, Cluster: kube.NewCluster(ctrl), Client: client, Rec: rec, Faults: inj}
}

// AddNode provisions a VM (the paper's size: 5 vCPUs, 4 GB) with a
// container engine and both CNI plugins, registered as a cluster node.
// The BrFusion plugin falls back to the engine's bridge+NAT network
// when the hot-plug path exhausts its retries.
func (b *Base) AddNode(name string, addr netsim.IPv4) *kube.Node {
	vm, err := b.Host.CreateVM(vmm.VMConfig{Name: name, VCPUs: 5, MemoryMB: 4096})
	if err != nil {
		// Scenario topologies use unique literal names; a duplicate is a
		// construction bug, not a runtime condition.
		panic(fmt.Sprintf("scenario: %v", err))
	}
	vm.PlugBridgeNIC("virbr0", addr, HostBridgeNet)
	e := container.NewEngine(container.Config{
		Node: name, Eng: b.Eng, Net: b.Net, NS: vm.NS, CPU: vm.CPU,
		EntityCPU: vm.EntityCPU,
		Uplink:    "eth0",
		Boot:      container.FastBootProfile(),
	})
	e.Pull(container.Image{Name: "app", SizeMB: 150})
	node := kube.NewNode(vm, e)
	node.CNI.Register(e.DefaultProvisioner())
	bf := brfusion.New(b.Ctrl, vm, "virbr0")
	bf.Fallback = e.DefaultProvisioner()
	node.CNI.Register(bf)
	b.Cluster.AddNode(node)
	return node
}

// ServerClient is a deployed client↔server experiment.
type ServerClient struct {
	*Base
	Mode Mode
	VM   *vmm.VM
	// ServerNS is where the server application binds.
	ServerNS *netsim.NetNS
	// DialAddr is the address the client connects to (the VM for NAT and
	// NoCont, the pod itself for BrFusion).
	DialAddr netsim.IPv4
	// AppEntity and VMEntity name the cpuacct entities for the CPU
	// breakdown figures.
	AppEntity, VMEntity string
}

// NewServerClient builds a §5.2 topology with telemetry and fault
// injection off. ports lists the server ports to expose; under ModeNAT
// they are published 1:1 on the VM.
func NewServerClient(seed int64, mode Mode, ports ...uint16) (*ServerClient, error) {
	return NewServerClientCfg(Config{Seed: seed}, mode, ports...)
}

// NewServerClientCfg is the fully parameterized constructor: telemetry
// (Config.Rec) and fault injection (Config.Faults) are installed before
// the topology is built, so boot-time control-plane operations appear
// in the trace and provisioning itself runs under the fault schedule.
func NewServerClientCfg(cfg Config, mode Mode, ports ...uint16) (*ServerClient, error) {
	b := NewBaseCfg(cfg)
	vmAddr := HostBridgeNet.Host(10)
	node := b.AddNode("server-vm", vmAddr)
	sc := &ServerClient{
		Base:     b,
		Mode:     mode,
		VM:       node.VM,
		VMEntity: "vm/server-vm",
	}

	switch mode {
	case ModeNoCont:
		sc.ServerNS = node.VM.NS
		sc.DialAddr = vmAddr
		sc.AppEntity = "guest/server-vm"
		return sc, nil

	case ModeNAT, ModeBrFusion:
		spec := kube.PodSpec{
			Name: "server",
			Containers: []kube.ContainerSpec{{
				Name: "srv", Image: "app", CPU: 1, MemMB: 512,
				Ports: portMaps(ports),
			}},
		}
		if mode == ModeBrFusion {
			spec.Network = "brfusion"
		}
		var pod *kube.Pod
		var derr error
		b.Cluster.Deploy(spec, func(p *kube.Pod, err error) { pod, derr = p, err })
		b.Eng.Run()
		if derr != nil {
			return nil, fmt.Errorf("scenario: deploy server pod: %w", derr)
		}
		part := pod.Parts[0]
		sc.ServerNS = part.Sandbox.NS
		sc.AppEntity = "app/server"
		if mode == ModeBrFusion {
			sc.DialAddr = part.PodIP
		} else {
			sc.DialAddr = vmAddr
		}
		return sc, nil
	}
	return nil, fmt.Errorf("scenario: unknown mode %q", mode)
}

// portMaps publishes each port 1:1.
func portMaps(ports []uint16) []container.PortMap {
	out := make([]container.PortMap, 0, 2*len(ports))
	for _, p := range ports {
		out = append(out,
			container.PortMap{Proto: netsim.ProtoUDP, NodePort: p, CtrPort: p},
			container.PortMap{Proto: netsim.ProtoTCP, NodePort: p, CtrPort: p},
		)
	}
	return out
}

// Usage reads an entity's CPU usage from the world accountant.
func (b *Base) Usage(entity string) cpuacct.Usage {
	return b.Net.Acct.Usage(entity)
}
