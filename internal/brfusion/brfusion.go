// Package brfusion is the BrFusion CNI plugin (§3): instead of wiring a
// pod to an in-VM bridge behind in-VM NAT, it asks the VMM (through the
// core controller) to hot-plug a dedicated NIC for the pod, then — as
// the orchestrator's in-VM agent — moves that NIC straight into the
// pod's network namespace. The pod ends up with a first-class address on
// the host bridge subnet: the in-VM network virtualization layer
// disappears, which is the whole point.
//
// The plugin carries real failure semantics: the hot-plug conversation
// retries with sim-clock timeouts and exponential backoff, the VM agent
// survives injected crashes by restarting, and when either path exhausts
// its budget the pod degrades gracefully to the Fallback provisioner
// (the engine's bridge+NAT network) instead of failing outright.
package brfusion

import (
	"fmt"
	"time"

	"nestless/internal/container"
	"nestless/internal/core"
	"nestless/internal/cpuacct"
	"nestless/internal/faults"
	"nestless/internal/netsim"
	"nestless/internal/vmm"
)

// Agent timing: finding the hot-plugged interface by MAC, pushing it
// into the pod namespace and configuring the address is a couple of
// netlink round trips. A crashed agent is respawned by the in-VM
// supervisor after agentRestartDelay; maxAgentRestarts bounds how long
// the plugin waits before giving up on the VM agent for this pod.
const (
	agentConfigMean   = 4 * time.Millisecond
	agentConfigJitter = 1 * time.Millisecond
	agentRestartDelay = 20 * time.Millisecond
	maxAgentRestarts  = 5
)

// Plugin provisions BrFusion networking for pods on one VM.
type Plugin struct {
	Ctrl *core.Controller
	VM   *vmm.VM
	// Bridge is the host-level networking domain pods join (§3.1 step 1
	// lets the orchestrator pick a tenant-specific bridge).
	Bridge string
	// Fallback, when set, takes over pods whose hot-plug path exhausted
	// its retries — the degraded-but-connected bridge+NAT network.
	Fallback container.Provisioner

	// Retries and Fallbacks count recovery activity for reports.
	Retries   uint64
	Fallbacks uint64

	devices     map[*container.Container]string
	viaFallback map[*container.Container]bool
}

// New returns the plugin for one (VM, host bridge) pair.
func New(ctrl *core.Controller, vm *vmm.VM, bridge string) *Plugin {
	return &Plugin{
		Ctrl:        ctrl,
		VM:          vm,
		Bridge:      bridge,
		devices:     make(map[*container.Container]string),
		viaFallback: make(map[*container.Container]bool),
	}
}

// Name identifies the plugin.
func (p *Plugin) Name() string { return "brfusion" }

// policy is the hot-plug retry policy: the fault package's default,
// with the watchdog timer armed only in faulted worlds. A fault-free
// monitor cannot stall, and the leftover timer events would perturb the
// deterministic baseline.
func (p *Plugin) policy() faults.RetryPolicy {
	pol := faults.DefaultRetryPolicy()
	if p.VM.Host.Net.Faults == nil {
		pol.Timeout = 0
	}
	return pol
}

// Provision runs the four-step protocol for one pod sandbox. Published
// ports are unnecessary — the pod's address is directly reachable on the
// host bridge domain, with NAT only at the host level exactly as for a
// VM — so they are ignored (the fallback path does honour them).
func (p *Plugin) Provision(c *container.Container, ports []container.PortMap, done func(netsim.IPv4, error)) {
	h := p.VM.Host
	rec := h.Net.Rec
	op := rec.OpBegin("cni/brfusion", "provision "+c.Name)
	inner := done
	done = func(ip netsim.IPv4, err error) {
		op.End(err)
		inner(ip, err)
	}

	pol := p.policy()
	pol.OnRetry = func(int, error) {
		p.Retries++
		if rec != nil {
			rec.Metrics().Counter("retry/brfusion").Inc()
		}
	}
	faults.Retry(h.Eng, pol,
		func(_ int, complete func(core.NICInfo, error)) {
			p.Ctrl.ProvisionPodNIC(p.VM, p.Bridge, complete)
		},
		func(info core.NICInfo, err error) {
			// A hot-plug that completed after its watchdog fired: the
			// orchestrator already moved on, so unplug the stray NIC.
			if err == nil {
				p.Ctrl.ReleaseDevice(p.VM, info.DeviceID, nil)
			}
		},
		func(info core.NICInfo, _ int, err error) {
			if err != nil {
				p.fallback(c, ports, err, done)
				return
			}
			p.agentStep(c, ports, info, 0, done)
		})
}

// agentStep is §3.1 step 4 — the VM agent configures the NIC and hands
// it to the pod — hardened against injected agent crashes: each crash
// costs a supervisor restart, and exhausting the restart budget releases
// the NIC and degrades to the fallback network.
func (p *Plugin) agentStep(c *container.Container, ports []container.PortMap, info core.NICInfo, restarts int, done func(netsim.IPv4, error)) {
	h := p.VM.Host
	dev := p.VM.Device(info.DeviceID)
	if dev == nil {
		p.fallback(c, ports, fmt.Errorf("brfusion: device %s vanished", info.DeviceID), done)
		return
	}
	ip, subnet, err := p.Ctrl.AllocPodIP(p.Bridge)
	if err != nil {
		p.Ctrl.ReleaseDevice(p.VM, info.DeviceID, nil)
		done(netsim.IPv4{}, err)
		return
	}
	var attempt func(restarts int)
	attempt = func(restarts int) {
		rng := h.Eng.Rand()
		d := time.Duration(rng.Normal(float64(agentConfigMean), float64(agentConfigJitter)))
		if d < agentConfigMean/4 {
			d = agentConfigMean / 4
		}
		p.VM.CPU.Run(cpuacct.Sys, d, func() {
			if h.Net.Faults.Crash("agent/" + p.VM.Name) {
				if restarts+1 > maxAgentRestarts {
					p.Ctrl.ReleaseDevice(p.VM, info.DeviceID, nil)
					p.fallback(c, ports, fmt.Errorf("brfusion: agent on %s crashed %d times", p.VM.Name, restarts+1), done)
					return
				}
				h.Eng.After(agentRestartDelay, func() { attempt(restarts + 1) })
				return
			}
			iface := dev.NIC.Guest
			if iface.NS != nil {
				iface.NS.RemoveIface(iface.Name)
			}
			c.NS.AdoptIface(iface, "eth0")
			iface.SetAddr(ip, subnet)
			dev.NIC.SetGuestCPU(c.NS.CPU)
			gw := p.Ctrl.Host().Bridge(p.Bridge).Iface().Addr
			c.NS.AddRoute(netsim.Route{Dst: netsim.MustPrefix(netsim.IPv4{}, 0), Via: gw, Dev: "eth0"})
			p.devices[c] = info.DeviceID
			done(ip, nil)
		})
	}
	attempt(restarts)
}

// fallback degrades the pod to the Fallback provisioner after the
// hot-plug path gave up. The pod stays schedulable — it just pays the
// duplicate network virtualization BrFusion would have removed.
func (p *Plugin) fallback(c *container.Container, ports []container.PortMap, cause error, done func(netsim.IPv4, error)) {
	if p.Fallback == nil {
		done(netsim.IPv4{}, fmt.Errorf("brfusion: %w (no fallback network)", cause))
		return
	}
	p.Fallbacks++
	if rec := p.VM.Host.Net.Rec; rec != nil {
		rec.Instant("cni/brfusion", "fallback "+c.Name, "count", 1)
		rec.Metrics().Counter("fallback/brfusion").Inc()
	}
	p.Fallback.Provision(c, ports, func(ip netsim.IPv4, err error) {
		if err != nil {
			done(netsim.IPv4{}, fmt.Errorf("brfusion: fallback after %v: %w", cause, err))
			return
		}
		p.viaFallback[c] = true
		done(ip, nil)
	})
}

// Release asks the VMM to unplug the pod's NIC (or hands fallback pods
// to the fallback provisioner). Releasing a pod this plugin never
// provisioned — or releasing one twice — is an error.
func (p *Plugin) Release(c *container.Container) error {
	if p.viaFallback[c] {
		delete(p.viaFallback, c)
		return p.Fallback.Release(c)
	}
	id, ok := p.devices[c]
	if !ok {
		return fmt.Errorf("brfusion: nothing provisioned for %q", c.Name)
	}
	delete(p.devices, c)
	// Fire-and-forget with retries: a release that still fails after the
	// retry budget surfaces through telemetry and the host leak checker.
	p.Ctrl.ReleaseDevice(p.VM, id, nil)
	return nil
}
