// Package core is the paper's primary contribution as a control plane:
// the orchestrator↔VMM integration that "removes the nest" from nested
// virtualization. It implements the two four-step protocols verbatim:
//
// BrFusion (§3.1) — per-pod NIC provisioning:
//  1. the orchestrator asks the VMM for a new NIC on the VM chosen
//     during scheduling, optionally naming the host-level networking
//     domain (bridge);
//  2. the VMM hot-plugs the NIC and wires it to that bridge;
//  3. the VMM returns an identifier (the MAC address);
//  4. the orchestrator's VM agent configures the NIC inside the VM and
//     gives it to the pod.
//
// Hostlo (§4.1) — cross-VM pod localhost:
//  1. the orchestrator asks the VMM for a new Hostlo for the pod and
//     names the VMs targeted by the (split) placement;
//  2. the VMM creates the Hostlo device and multiplexes it between
//     those VMs as endpoint NICs;
//  3. the VMM returns the endpoint identifiers (MACs);
//  4. the VM agents configure the endpoints as the pod's localhost.
//
// Steps 1–3 live here (Controller, speaking QMP to the VMM); step 4 is
// the agent side, implemented by the CNI plugins in internal/brfusion
// and internal/hostlocni on top of this package.
package core

import (
	"fmt"
	"time"

	"nestless/internal/faults"
	"nestless/internal/netsim"
	"nestless/internal/vmm"
)

// NICInfo is the VMM's answer to a BrFusion NIC request (§3.1 step 3).
type NICInfo struct {
	VM       string
	DeviceID string
	MAC      netsim.MAC
	// GuestIface is the interface name the guest OS assigned.
	GuestIface string
	// Bridge is the host networking domain the NIC belongs to.
	Bridge string
}

// EndpointInfo is one VM's Hostlo endpoint (§4.1 step 3).
type EndpointInfo struct {
	VM       string
	DeviceID string
	MAC      netsim.MAC
	// GuestIface is the endpoint's in-guest interface name.
	GuestIface string
	// Hostlo is the host device the endpoint multiplexes.
	Hostlo string
}

// Controller is the orchestrator's handle on one host's VMM. It owns the
// management-plane conversation and the host-side address pool for
// BrFusion pod NICs (pods get first-class addresses on the host bridge
// subnet, exactly like VMs do).
type Controller struct {
	host *vmm.Host

	devSeq    int
	hostloSeq int

	// podIPAM allocates pod addresses per host bridge.
	podIPAM map[string]*ipam
}

// NewController attaches a controller to a host's VMM.
func NewController(h *vmm.Host) *Controller {
	return &Controller{host: h, podIPAM: make(map[string]*ipam)}
}

// Host returns the managed host.
func (c *Controller) Host() *vmm.Host { return c.host }

// nextDeviceID names a fresh managed device.
func (c *Controller) nextDeviceID(kind string) string {
	c.devSeq++
	return fmt.Sprintf("%s-%d", kind, c.devSeq)
}

// AllocPodIP reserves a pod address on the named host bridge's subnet.
// BrFusion pods sit on the same L2 domain as the VMs, so they draw from
// the same subnet, above the VM range.
func (c *Controller) AllocPodIP(bridge string) (netsim.IPv4, netsim.Prefix, error) {
	br := c.host.Bridge(bridge)
	if br == nil {
		return netsim.IPv4{}, netsim.Prefix{}, fmt.Errorf("core: no host bridge %q", bridge)
	}
	pool, ok := c.podIPAM[bridge]
	if !ok {
		pool = &ipam{subnet: br.Iface().Net, next: 100}
		c.podIPAM[bridge] = pool
	}
	ip, err := pool.alloc()
	return ip, pool.subnet, err
}

// ProvisionPodNIC runs BrFusion protocol steps 1–3: hot-plug a new NIC
// on vm, attached to the named host bridge, and report its identity.
// A device_add failure rolls the netdev registration back, so a failed
// provision leaves nothing behind for the retry to trip over.
func (c *Controller) ProvisionPodNIC(vm *vmm.VM, bridge string, done func(NICInfo, error)) {
	if c.host.Bridge(bridge) == nil {
		done(NICInfo{}, fmt.Errorf("core: no host bridge %q", bridge))
		return
	}
	m := vm.Monitor()
	ndID := c.nextDeviceID("nd")
	devID := c.nextDeviceID("podnic")
	m.Execute("netdev_add", map[string]string{"id": ndID, "type": "bridge", "br": bridge}, func(_ vmm.Result, err error) {
		if err != nil {
			done(NICInfo{}, err)
			return
		}
		m.Execute("device_add", map[string]string{"id": devID, "driver": "virtio-net", "netdev": ndID}, func(r vmm.Result, err error) {
			if err != nil {
				c.releaseNetdev(vm, ndID)
				done(NICInfo{}, err)
				return
			}
			dev := vm.Device(devID)
			done(NICInfo{
				VM:         vm.Name,
				DeviceID:   devID,
				MAC:        dev.MAC(),
				GuestIface: r["iface"],
				Bridge:     bridge,
			}, nil)
		})
	})
}

// releasePolicy is the teardown retry loop: more attempts than the
// provision side, because a wedged release is a leak while a wedged
// provision merely falls back. The watchdog arms only in faulted
// worlds — a fault-free monitor cannot stall, and the dead timer events
// would perturb nothing but still cost heap.
func (c *Controller) releasePolicy(attempts int) faults.RetryPolicy {
	pol := faults.DefaultRetryPolicy()
	pol.MaxAttempts = attempts
	pol.BackoffMax = 200 * time.Millisecond
	if c.host.Net.Faults == nil {
		pol.Timeout = 0
	}
	return pol
}

// retryCounter surfaces a retry loop's activity as a telemetry counter
// ("retry/<site>" in the instruments table). Nil when telemetry is off.
func (c *Controller) retryCounter(site string) func(int, error) {
	rec := c.host.Net.Rec
	if rec == nil {
		return nil
	}
	return func(int, error) { rec.Metrics().Counter("retry/" + site).Inc() }
}

// ReleaseDevice detaches a managed NIC with bounded retries. Delete is
// idempotent at the orchestrator level: if a retried device_del finds
// the device already gone (an earlier, timed-out attempt won the race),
// the release has converged and reports success.
func (c *Controller) ReleaseDevice(vm *vmm.VM, deviceID string, done func(error)) {
	pol := c.releasePolicy(4)
	pol.OnRetry = c.retryCounter("device_del")
	faults.Retry(c.host.Eng, pol,
		func(_ int, complete func(struct{}, error)) {
			vm.Monitor().Execute("device_del", map[string]string{"id": deviceID}, func(_ vmm.Result, err error) {
				complete(struct{}{}, err)
			})
		},
		nil,
		func(_ struct{}, _ int, err error) {
			if err != nil && vm.Device(deviceID) == nil {
				err = nil
			}
			if done != nil {
				done(err)
			}
		})
}

// releaseNetdev retires an orphaned netdev spec (a device_add that
// never produced a device), retrying through transient faults.
func (c *Controller) releaseNetdev(vm *vmm.VM, ndID string) {
	pol := c.releasePolicy(4)
	pol.OnRetry = c.retryCounter("netdev_del")
	faults.Retry(c.host.Eng, pol,
		func(_ int, complete func(struct{}, error)) {
			vm.Monitor().Execute("netdev_del", map[string]string{"id": ndID}, func(_ vmm.Result, err error) {
				complete(struct{}{}, err)
			})
		},
		nil,
		func(_ struct{}, _ int, err error) {},
	)
}

// ReleaseHostlo deletes a pod's Hostlo device once its queues are gone.
// The endpoint device_dels race this on the monitor, so the loop is
// generous with attempts; "already gone" counts as success.
func (c *Controller) ReleaseHostlo(hostloID string, done func(error)) {
	h := c.host
	vms := h.VMs()
	if len(vms) == 0 {
		if done != nil {
			done(fmt.Errorf("core: no VM monitor to reach the VMM through"))
		}
		return
	}
	m := vms[0].Monitor()
	pol := c.releasePolicy(8)
	pol.OnRetry = c.retryCounter("hostlo_delete")
	faults.Retry(h.Eng, pol,
		func(_ int, complete func(struct{}, error)) {
			m.Execute("hostlo_delete", map[string]string{"id": hostloID}, func(_ vmm.Result, err error) {
				complete(struct{}{}, err)
			})
		},
		nil,
		func(_ struct{}, _ int, err error) {
			if err != nil && h.Hostlo(hostloID) == nil {
				err = nil
			}
			if done != nil {
				done(err)
			}
		})
}

// ProvisionHostlo runs Hostlo protocol steps 1–3: create a fresh Hostlo
// device for a pod and multiplex it into every target VM. The callback
// receives one endpoint per VM, in the given order. A mid-sequence
// failure rolls the whole provision back — already-attached endpoints
// are unplugged and the device deleted — before the error is reported,
// so the caller never inherits a half-multiplexed pod.
func (c *Controller) ProvisionHostlo(vms []*vmm.VM, done func(hostloID string, eps []EndpointInfo, err error)) {
	if len(vms) == 0 {
		done("", nil, fmt.Errorf("core: hostlo needs at least one VM"))
		return
	}
	c.hostloSeq++
	hid := fmt.Sprintf("hostlo%d", c.hostloSeq)
	eps := make([]EndpointInfo, 0, len(vms))

	// rollback unwinds eps (reverse order) and then the device itself;
	// each step retries internally, and the original error wins.
	rollback := func(cause error) {
		var unwind func(i int)
		unwind = func(i int) {
			if i < 0 {
				c.ReleaseHostlo(hid, func(error) { done(hid, nil, cause) })
				return
			}
			ep := eps[i]
			c.ReleaseDevice(c.host.VM(ep.VM), ep.DeviceID, func(error) { unwind(i - 1) })
		}
		unwind(len(eps) - 1)
	}

	var attach func(i int)
	attach = func(i int) {
		if i >= len(vms) {
			done(hid, eps, nil)
			return
		}
		vm := vms[i]
		m := vm.Monitor()
		ndID := c.nextDeviceID("ndh")
		devID := c.nextDeviceID("hlo")
		m.Execute("netdev_add", map[string]string{"id": ndID, "type": "hostlo", "dev": hid}, func(_ vmm.Result, err error) {
			if err != nil {
				rollback(err)
				return
			}
			m.Execute("device_add", map[string]string{"id": devID, "driver": "virtio-net", "netdev": ndID}, func(r vmm.Result, err error) {
				if err != nil {
					c.releaseNetdev(vm, ndID)
					rollback(err)
					return
				}
				dev := vm.Device(devID)
				eps = append(eps, EndpointInfo{
					VM:         vm.Name,
					DeviceID:   devID,
					MAC:        dev.MAC(),
					GuestIface: r["iface"],
					Hostlo:     hid,
				})
				attach(i + 1)
			})
		})
	}
	// Step 2 first half: create the device, then attach per VM.
	vms[0].Monitor().Execute("hostlo_create", map[string]string{"id": hid}, func(_ vmm.Result, err error) {
		if err != nil {
			done(hid, nil, err)
			return
		}
		attach(0)
	})
}

// ipam is a trivial sequential allocator inside a subnet.
type ipam struct {
	subnet netsim.Prefix
	next   int
}

func (p *ipam) alloc() (netsim.IPv4, error) {
	max := 1<<(32-uint(p.subnet.Bits)) - 2
	if p.next > max {
		return netsim.IPv4{}, fmt.Errorf("core: pod address pool %v exhausted", p.subnet)
	}
	ip := p.subnet.Host(p.next)
	p.next++
	return ip, nil
}
