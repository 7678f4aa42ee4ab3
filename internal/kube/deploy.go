package kube

import (
	"errors"
	"fmt"
	"time"

	"nestless/internal/cni"
	"nestless/internal/container"
	"nestless/internal/core"
	"nestless/internal/faults"
	"nestless/internal/hostlocni"
	"nestless/internal/netsim"
	"nestless/internal/vmm"
)

// Deploy schedules and starts a pod, invoking done when every container
// runs. Split pods get a Hostlo provisioned across their VMs before any
// part starts, so the pod-localhost exists when the containers come up.
func (c *Cluster) Deploy(spec PodSpec, done func(*Pod, error)) {
	if _, dup := c.pods[spec.Name]; dup {
		done(nil, fmt.Errorf("kube: pod %q already deployed", spec.Name))
		return
	}
	if len(spec.Containers) == 0 {
		done(nil, fmt.Errorf("kube: pod %q has no containers", spec.Name))
		return
	}
	placements, err := c.schedule(spec)
	if err != nil {
		done(nil, err)
		return
	}

	pod := &Pod{Spec: spec}
	for _, pl := range placements {
		pl.node.commit(totalCPU(pl.specs), totalMem(pl.specs))
		pod.Parts = append(pod.Parts, &PodPart{Node: pl.node, specs: pl.specs})
	}

	// fail unwinds whatever the partial deploy already built — running
	// containers from earlier parts, the Hostlo, committed resources —
	// so a failed Deploy leaves the cluster exactly as it found it.
	fail := func(err error) {
		if derr := c.destroy(pod); derr != nil {
			err = errors.Join(err, derr)
		}
		done(nil, err)
	}

	if len(pod.Parts) == 1 {
		pod.Parts[0].LocalAddr = netsim.IP(127, 0, 0, 1)
		c.deployParts(pod, nil, func(err error) {
			if err != nil {
				fail(err)
				return
			}
			c.pods[spec.Name] = pod
			done(pod, nil)
		})
		return
	}

	// Cross-VM pod: provision the Hostlo first (§4.1 steps 1–3), with a
	// retry loop around the whole multi-VM conversation. The watchdog is
	// generous — the sequence spans several QMP round trips — and arms
	// only when fault injection can actually stall one.
	vms := make([]*vmm.VM, len(pod.Parts))
	for i, part := range pod.Parts {
		vms[i] = part.Node.VM
	}
	host := c.Ctrl.Host()
	type hostloResult struct {
		hid string
		eps []core.EndpointInfo
	}
	pol := faults.DefaultRetryPolicy()
	pol.Timeout = 250 * time.Millisecond
	if host.Net.Faults == nil {
		pol.Timeout = 0
	}
	if rec := host.Net.Rec; rec != nil {
		pol.OnRetry = func(int, error) { rec.Metrics().Counter("retry/hostlo").Inc() }
	}
	faults.Retry(host.Eng, pol,
		func(_ int, complete func(hostloResult, error)) {
			c.Ctrl.ProvisionHostlo(vms, func(hid string, eps []core.EndpointInfo, err error) {
				complete(hostloResult{hid: hid, eps: eps}, err)
			})
		},
		func(r hostloResult, err error) {
			// Provision landed after its watchdog fired: a fresh attempt
			// owns the pod now, so unwind this orphaned one completely.
			if err == nil {
				for _, ep := range r.eps {
					c.Ctrl.ReleaseDevice(host.VM(ep.VM), ep.DeviceID, nil)
				}
				c.Ctrl.ReleaseHostlo(r.hid, nil)
			}
		},
		func(r hostloResult, _ int, err error) {
			if err != nil {
				fail(err)
				return
			}
			pod.HostloID = r.hid
			atts := make([]*hostlocni.Attachment, len(pod.Parts))
			for i, part := range pod.Parts {
				part.LocalAddr = hostlocni.EndpointAddr(i)
				atts[i] = &hostlocni.Attachment{
					VM:       part.Node.VM,
					Endpoint: r.eps[i],
					Addr:     part.LocalAddr,
					Ctrl:     c.Ctrl,
				}
			}
			c.deployParts(pod, atts, func(err error) {
				if err != nil {
					fail(err)
					return
				}
				c.pods[spec.Name] = pod
				done(pod, nil)
			})
		})
}

// deployParts starts every part sequentially: sandbox (with CNI chain)
// then member containers.
func (c *Cluster) deployParts(pod *Pod, atts []*hostlocni.Attachment, done func(error)) {
	var nextPart func(i int)
	nextPart = func(i int) {
		if i >= len(pod.Parts) {
			done(nil)
			return
		}
		part := pod.Parts[i]
		primaryName := pod.Spec.Network
		if primaryName == "" {
			primaryName = "bridge-nat"
		}
		primary, err := part.Node.CNI.Lookup(primaryName)
		if err != nil {
			done(err)
			return
		}
		var prov cni.Plugin = primary
		if atts != nil {
			prov = &cni.Chain{Plugins: []cni.Plugin{primary, atts[i]}}
		}
		var ports []container.PortMap
		for _, cs := range part.specs {
			ports = append(ports, cs.Ports...)
		}
		sandboxName := fmt.Sprintf("%s-%s", pod.Spec.Name, part.Node.Name)
		ensureImage(part.Node.Engine, "pause")
		part.Node.Engine.RunSandbox(sandboxName, "app/"+pod.Spec.Name, prov, ports, func(sb *container.Container, err error) {
			if err != nil {
				done(err)
				return
			}
			part.Sandbox = sb
			part.PodIP = sb.IP
			c.startContainers(pod, part, 0, func(err error) {
				if err != nil {
					done(err)
					return
				}
				nextPart(i + 1)
			})
		})
	}
	nextPart(0)
}

// startContainers launches a part's containers one by one, joining the
// sandbox namespace.
func (c *Cluster) startContainers(pod *Pod, part *PodPart, i int, done func(error)) {
	if i >= len(part.specs) {
		done(nil)
		return
	}
	cs := part.specs[i]
	ensureImage(part.Node.Engine, cs.Image)
	name := fmt.Sprintf("%s-%s", pod.Spec.Name, cs.Name)
	part.Node.Engine.Run(container.Spec{
		Name:         name,
		Image:        cs.Image,
		Entity:       "app/" + pod.Spec.Name,
		JoinPod:      part.Sandbox,
		CPURequest:   cs.CPU,
		MemRequestMB: cs.MemMB,
	}, func(ctr *container.Container, err error) {
		if err != nil {
			done(err)
			return
		}
		part.Containers = append(part.Containers, ctr)
		c.startContainers(pod, part, i+1, done)
	})
}

// Delete tears a pod down and returns its resources. Release errors are
// reported (joined) but never stop the teardown.
func (c *Cluster) Delete(name string) error {
	pod, ok := c.pods[name]
	if !ok {
		return fmt.Errorf("kube: no pod %q", name)
	}
	delete(c.pods, name)
	return c.destroy(pod)
}

// destroy stops a pod's containers and sandboxes, releases its Hostlo
// device, and returns committed node resources. Shared by Delete and
// the mid-deploy failure path (where later parts may not exist yet).
// The Hostlo release retries asynchronously in sim time — it has to
// outwait the endpoint device_dels racing it on the monitors — so its
// outcome surfaces through telemetry and the host leak checker.
func (c *Cluster) destroy(pod *Pod) error {
	var errs []error
	for _, part := range pod.Parts {
		for _, ctr := range part.Containers {
			if err := part.Node.Engine.Stop(ctr.Name); err != nil {
				errs = append(errs, err)
			}
		}
		part.Containers = nil
		if part.Sandbox != nil {
			if err := part.Node.Engine.Stop(part.Sandbox.Name); err != nil {
				errs = append(errs, err)
			}
			part.Sandbox = nil
		}
	}
	if pod.HostloID != "" {
		c.Ctrl.ReleaseHostlo(pod.HostloID, nil)
		pod.HostloID = ""
	}
	c.teardown(pod)
	return errors.Join(errs...)
}

// teardown returns committed resources.
func (c *Cluster) teardown(pod *Pod) {
	for _, part := range pod.Parts {
		part.Node.release(totalCPU(part.specs), totalMem(part.specs))
	}
}

func totalCPU(specs []ContainerSpec) float64 {
	var t float64
	for _, s := range specs {
		t += s.CPU
	}
	return t
}

func totalMem(specs []ContainerSpec) int {
	var t int
	for _, s := range specs {
		t += s.MemMB
	}
	return t
}

// ensureImage makes deploys self-contained: missing images are pulled
// implicitly, as kubelet would.
func ensureImage(e *container.Engine, name string) {
	if !e.HasImage(name) {
		e.Pull(container.Image{Name: name, SizeMB: 100})
	}
}
