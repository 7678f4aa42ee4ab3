// Package container models the container engine running inside each VM
// (Docker CE in the paper's testbed): images, containers and pod
// sandboxes with their own network namespaces, the default bridge+NAT
// network (docker0 + MASQUERADE + port publishing), and a step-by-step
// start-up sequence whose durations drive the paper's container boot
// time comparison (Fig. 8).
package container

import (
	"fmt"
	"time"

	"nestless/internal/cpuacct"
	"nestless/internal/netsim"
	"nestless/internal/sim"
)

// State is a container lifecycle state.
type State int

// Lifecycle states.
const (
	Created State = iota
	Starting
	Running
	Stopped
)

// String names the state.
func (s State) String() string {
	switch s {
	case Created:
		return "created"
	case Starting:
		return "starting"
	case Running:
		return "running"
	case Stopped:
		return "stopped"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Image is a container image reference.
type Image struct {
	Name   string
	SizeMB int
}

// PortMap publishes a container port on the node.
type PortMap struct {
	Proto    netsim.Proto
	NodePort uint16
	CtrPort  uint16
}

// Provisioner wires a container/sandbox namespace to a network. The
// default is the engine's bridge+NAT; BrFusion and Hostlo install their
// own through the CNI layer.
type Provisioner interface {
	// Provision attaches networking to the sandbox namespace and calls
	// done when the namespace can pass traffic. ports are the publish
	// requests (bridge NAT honours them; BrFusion doesn't need them —
	// the pod has a first-class address).
	Provision(c *Container, ports []PortMap, done func(netsim.IPv4, error))
	// Release tears the attachment down. Releasing a container that was
	// never provisioned (or releasing twice) is an error: silent
	// tolerance here hid real double-free bugs in callers.
	Release(c *Container) error
	// Name identifies the provisioner in diagnostics.
	Name() string
}

// Config wires an engine to its node (the VM it runs in).
type Config struct {
	Node      string // node name, e.g. the VM name
	Eng       *sim.Engine
	Net       *netsim.Net
	NS        *netsim.NetNS // node root namespace
	CPU       *netsim.CPU   // node kernel lane
	EntityCPU func(entity string) *netsim.CPU
	// Uplink is the node's primary interface (for masquerading container
	// traffic out of the node).
	Uplink string
	// Boot overrides the start-up timing profile (nil = DefaultBootProfile).
	Boot *BootProfile
}

// The default container network is Docker's: docker0 at 172.17.0.1/16.
var (
	bridgeNet  = netsim.MustPrefix(netsim.IP(172, 17, 0, 0), 16)
	bridgeAddr = netsim.IP(172, 17, 0, 1)
)

// Engine is the per-node container engine.
type Engine struct {
	cfg  Config
	rng  *sim.Rand
	boot BootProfile

	images     map[string]Image
	containers map[string]*Container

	// Default bridge network (docker0 equivalent).
	bridge  *netsim.Bridge
	ipNext  int
	defProv *bridgeNAT
}

// NewEngine starts a container engine on the node and creates its
// default bridge network with masquerading.
func NewEngine(cfg Config) *Engine {
	e := &Engine{
		cfg:        cfg,
		rng:        cfg.Eng.Rand().Fork(),
		boot:       DefaultBootProfile(),
		images:     make(map[string]Image),
		containers: make(map[string]*Container),
		ipNext:     2,
	}
	if cfg.Boot != nil {
		e.boot = *cfg.Boot
	}
	// A node running a container engine plus an orchestrator carries
	// long iptables chains on its forwarding path (Docker's DOCKER
	// chains, kube-proxy services): forwarded container packets pay for
	// them, locally terminated traffic does not.
	cfg.NS.ForwardChainScale = 2.4
	e.bridge = netsim.NewBridge(cfg.NS, "docker0")
	e.bridge.Iface().SetAddr(bridgeAddr, bridgeNet)
	cfg.NS.Filter.AddMasquerade(netsim.SNATRule{SrcNet: bridgeNet, OutDev: cfg.Uplink})
	e.defProv = &bridgeNAT{e: e}
	return e
}

// SetBootProfile swaps the start-up timing model (e.g. tests run fast,
// the Fig. 8 experiment uses realistic durations).
func (e *Engine) SetBootProfile(p BootProfile) { e.boot = p }

// Bridge returns the engine's default bridge (docker0).
func (e *Engine) Bridge() *netsim.Bridge { return e.bridge }

// DefaultProvisioner returns the bridge+NAT network.
func (e *Engine) DefaultProvisioner() Provisioner { return e.defProv }

// Pull registers an image as locally available.
func (e *Engine) Pull(img Image) { e.images[img.Name] = img }

// HasImage reports whether the image is cached locally.
func (e *Engine) HasImage(name string) bool { _, ok := e.images[name]; return ok }

// Containers returns the engine's containers by name.
func (e *Engine) Containers() map[string]*Container {
	out := make(map[string]*Container, len(e.containers))
	for k, v := range e.containers {
		out[k] = v
	}
	return out
}

// allocIP hands out the next container address on the default bridge.
func (e *Engine) allocIP() netsim.IPv4 {
	ip := bridgeNet.Host(e.ipNext)
	e.ipNext++
	return ip
}

// Spec describes a container to run.
type Spec struct {
	Name  string
	Image string
	// Entity is the cpuacct entity the container's work bills to
	// ("" = "app/<name>").
	Entity string
	// JoinPod joins an existing sandbox namespace instead of creating
	// one (Kubernetes containers join their pod's pause sandbox).
	JoinPod *Container
	// Network selects the provisioner (nil = default bridge NAT;
	// ignored when JoinPod is set).
	Network Provisioner
	// Ports to publish on the node (bridge NAT network only).
	Ports []PortMap
	// CPURequest/MemRequestMB are scheduling hints carried through to
	// the orchestrator.
	CPURequest   float64
	MemRequestMB int
}

// Container is a running (or starting) container.
type Container struct {
	Name   string
	Image  string
	Engine *Engine
	NS     *netsim.NetNS
	CPU    *netsim.CPU
	State  State
	IP     netsim.IPv4

	prov    Provisioner
	sandbox bool

	// CreatedAt/ReadyAt bound the start-up measurement window.
	CreatedAt, ReadyAt sim.Time
}

// Run creates and starts a container, invoking done(container, error)
// when its start sequence completes (network is provisioned and the
// entrypoint has initialised). The duration between the call and done is
// the paper's container start-up time.
func (e *Engine) Run(spec Spec, done func(*Container, error)) {
	if _, dup := e.containers[spec.Name]; dup {
		done(nil, fmt.Errorf("container: duplicate name %q", spec.Name))
		return
	}
	if !e.HasImage(spec.Image) {
		done(nil, fmt.Errorf("container: image %q not present", spec.Image))
		return
	}
	entity := spec.Entity
	if entity == "" {
		entity = "app/" + spec.Name
	}
	c := &Container{
		Name:      spec.Name,
		Image:     spec.Image,
		Engine:    e,
		State:     Starting,
		CreatedAt: e.cfg.Eng.Now(),
	}
	c.CPU = e.cfg.EntityCPU(entity)
	if spec.JoinPod != nil {
		c.NS = spec.JoinPod.NS
		c.prov = nil // sandbox owns the network
	} else {
		c.NS = e.cfg.Net.NewNS(e.cfg.Node+"/"+spec.Name, c.CPU)
		c.prov = spec.Network
		if c.prov == nil {
			c.prov = e.defProv
		}
	}
	e.containers[spec.Name] = c
	e.bootSequence(c, spec, done)
}

// RunSandbox creates a pod sandbox (the pause container): a namespace
// plus network, which later containers join.
func (e *Engine) RunSandbox(name, entity string, prov Provisioner, ports []PortMap, done func(*Container, error)) {
	e.Run(Spec{
		Name:    name,
		Image:   "pause",
		Entity:  entity,
		Network: prov,
		Ports:   ports,
	}, func(c *Container, err error) {
		if c != nil {
			c.sandbox = true
		}
		done(c, err)
	})
}

// Stop tears a container down and releases its network. The container
// is removed from the engine even when the release errors — the error
// reports residue (visible to vmm.Host.Leaks), not a retryable state.
func (e *Engine) Stop(name string) error {
	c, ok := e.containers[name]
	if !ok {
		return fmt.Errorf("container: no container %q", name)
	}
	c.State = Stopped
	delete(e.containers, name)
	if c.prov != nil {
		return c.prov.Release(c)
	}
	return nil
}

// bootSequence runs the start-up steps, calling the provisioner between
// namespace creation and entrypoint start — where the CNI call happens.
func (e *Engine) bootSequence(c *Container, spec Spec, done func(*Container, error)) {
	eng := e.cfg.Eng
	// fail abandons the boot: the container leaves the engine's table so
	// its name is reusable, and a network provisioned before the failing
	// step is released — a dead entrypoint must not strand its veth/NIC.
	fail := func(err error, provisioned bool) {
		c.State = Stopped
		delete(e.containers, c.Name)
		if provisioned && c.prov != nil {
			_ = c.prov.Release(c)
		}
		done(nil, err)
	}
	steps := []namedStep{{"daemon-prep", e.boot.DaemonPrep}, {"namespace-setup", e.boot.NamespaceSetup}}
	if spec.JoinPod == nil {
		// Joining a pod skips sandbox work.
		steps = append(steps, namedStep{"rootfs-mount", e.boot.RootfsMount})
	}
	run := e.stepRunner(c, steps, func(err error) {
		if err != nil {
			fail(err, false)
			return
		}
		provision := func(next func()) {
			if c.prov == nil {
				next()
				return
			}
			c.prov.Provision(c, spec.Ports, func(ip netsim.IPv4, err error) {
				if err != nil {
					// A failed provisioner rolls its own work back; there
					// is nothing for the engine to release.
					fail(err, false)
					return
				}
				c.IP = ip
				next()
			})
		}
		provision(func() {
			e.stepRunner(c, []namedStep{{"process-start", e.boot.ProcessStart}}, func(err error) {
				if err != nil {
					fail(err, true)
					return
				}
				c.State = Running
				c.ReadyAt = eng.Now()
				done(c, nil)
			})()
		})
	})
	run()
}

// namedStep pairs a boot step with its telemetry span name.
type namedStep struct {
	name string
	s    bootStep
}

// stepRunner chains boot steps: each occupies wall-clock time (mostly
// I/O wait), bills a fraction of it as node kernel CPU, and — when
// telemetry is on — appears as one span on the node's boot timeline. A
// step error aborts the chain and reaches then(err).
func (e *Engine) stepRunner(c *Container, steps []namedStep, then func(error)) func() {
	eng := e.cfg.Eng
	rec := e.cfg.Net.Rec
	inj := e.cfg.Net.Faults
	var run func(i int)
	run = func(i int) {
		if i >= len(steps) {
			then(nil)
			return
		}
		st := steps[i]
		// A boot fault ("boot/<step>") is decided when the step starts
		// but surfaces when its wall time elapses — a failing runc or
		// iptables invocation burns its time before erroring out.
		ferr := inj.OpFail("boot/" + st.name)
		d := st.s.sample(e.rng)
		if st.s.CPUFraction > 0 {
			// Charge (not Run): the step's wall time exceeds its CPU
			// fraction, and the delay is modelled by the After below.
			e.cfg.CPU.Charge(cpuacct.Sys, time.Duration(float64(d)*st.s.CPUFraction))
		}
		op := rec.OpBegin("boot/"+e.cfg.Node, c.Name+"/"+st.name)
		eng.After(d, func() {
			op.End(ferr)
			if ferr != nil {
				then(ferr)
				return
			}
			run(i + 1)
		})
	}
	return func() { run(0) }
}
