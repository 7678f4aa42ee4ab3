// Package kube is the pod orchestrator of the reproduction: pod specs,
// nodes (VMs running a container engine and a kubelet-like agent), the
// "most requested" scheduler policy the paper simulates against (§5.3.1),
// and pod deployment through CNI plugins — including the capability the
// paper adds: splitting one pod across several VMs with a Hostlo
// localhost.
package kube

import (
	"fmt"
	"sort"

	"nestless/internal/cni"
	"nestless/internal/container"
	"nestless/internal/core"
	"nestless/internal/netsim"
	"nestless/internal/vmm"
)

// ContainerSpec is one container of a pod.
type ContainerSpec struct {
	Name  string
	Image string
	// CPU is the request in cores; MemMB in MiB.
	CPU   float64
	MemMB int
	Ports []container.PortMap
}

// PodSpec describes a pod to deploy.
type PodSpec struct {
	Name       string
	Containers []ContainerSpec
	// Network names the primary CNI plugin ("bridge-nat" default,
	// "brfusion" for the paper's de-duplicated stack).
	Network string
	// AllowSplit permits cross-VM placement backed by Hostlo when no
	// single node fits the whole pod.
	AllowSplit bool
	// NodeName pins the pod to one node (a node selector), bypassing
	// scoring. Splitting never applies to pinned pods.
	NodeName string
}

// TotalCPU sums the pod's CPU requests.
func (s PodSpec) TotalCPU() float64 {
	var t float64
	for _, c := range s.Containers {
		t += c.CPU
	}
	return t
}

// TotalMemMB sums the pod's memory requests.
func (s PodSpec) TotalMemMB() int {
	var t int
	for _, c := range s.Containers {
		t += c.MemMB
	}
	return t
}

// Node is one schedulable VM.
type Node struct {
	Name   string
	VM     *vmm.VM
	Engine *container.Engine
	CNI    *cni.Registry

	CapCPU   float64
	CapMemMB int

	reqCPU   float64
	reqMemMB int
}

// NewNode wraps a VM and its container engine as a cluster node,
// deriving capacity from the VM size.
func NewNode(vm *vmm.VM, engine *container.Engine) *Node {
	return &Node{
		Name:     vm.Name,
		VM:       vm,
		Engine:   engine,
		CNI:      cni.NewRegistry(),
		CapCPU:   float64(vm.VCPUs),
		CapMemMB: vm.MemoryMB,
	}
}

// FreeCPU returns unrequested CPU capacity.
func (n *Node) FreeCPU() float64 { return n.CapCPU - n.reqCPU }

// FreeMemMB returns unrequested memory capacity.
func (n *Node) FreeMemMB() int { return n.CapMemMB - n.reqMemMB }

// RequestedFraction scores the node for the "most requested" policy:
// the mean of the CPU and memory requested fractions.
func (n *Node) RequestedFraction() float64 {
	if n.CapCPU == 0 || n.CapMemMB == 0 {
		return 0
	}
	return (n.reqCPU/n.CapCPU + float64(n.reqMemMB)/float64(n.CapMemMB)) / 2
}

// fits reports whether the given request fits the node's free capacity.
func (n *Node) fits(cpu float64, memMB int) bool {
	return n.FreeCPU() >= cpu && n.FreeMemMB() >= memMB
}

func (n *Node) commit(cpu float64, memMB int) {
	n.reqCPU += cpu
	n.reqMemMB += memMB
}

func (n *Node) release(cpu float64, memMB int) {
	n.reqCPU -= cpu
	n.reqMemMB -= memMB
	if n.reqCPU < 0 {
		n.reqCPU = 0
	}
	if n.reqMemMB < 0 {
		n.reqMemMB = 0
	}
}

// PodPart is the fraction of a pod deployed on one node.
type PodPart struct {
	Node       *Node
	Sandbox    *container.Container
	Containers []*container.Container
	// LocalAddr is this part's address on the pod-localhost segment:
	// 127.0.0.1 for unsplit pods, the Hostlo endpoint otherwise.
	LocalAddr netsim.IPv4
	// PodIP is the part's primary-network address.
	PodIP netsim.IPv4

	specs []ContainerSpec
}

// Pod is a deployed pod.
type Pod struct {
	Spec     PodSpec
	Parts    []*PodPart
	HostloID string
}

// Split reports whether the pod spans more than one VM.
func (p *Pod) Split() bool { return len(p.Parts) > 1 }

// Part returns the part hosting the named container, or nil.
func (p *Pod) Part(containerName string) *PodPart {
	for _, part := range p.Parts {
		for _, cs := range part.specs {
			if cs.Name == containerName {
				return part
			}
		}
	}
	return nil
}

// Cluster is the orchestrator.
type Cluster struct {
	Ctrl  *core.Controller
	nodes []*Node
	pods  map[string]*Pod
}

// NewCluster builds an orchestrator over one host's controller.
func NewCluster(ctrl *core.Controller) *Cluster {
	return &Cluster{Ctrl: ctrl, pods: make(map[string]*Pod)}
}

// AddNode registers a node.
func (c *Cluster) AddNode(n *Node) { c.nodes = append(c.nodes, n) }

// Nodes returns the registered nodes.
func (c *Cluster) Nodes() []*Node { return append([]*Node(nil), c.nodes...) }

// Pod returns a deployed pod by name, or nil.
func (c *Cluster) Pod(name string) *Pod { return c.pods[name] }

// placement is one scheduling decision: which containers land on which
// node.
type placement struct {
	node  *Node
	specs []ContainerSpec
}

// ErrUnschedulable reports that no placement satisfies the request.
type ErrUnschedulable struct{ Pod string }

func (e ErrUnschedulable) Error() string {
	return fmt.Sprintf("kube: pod %q unschedulable", e.Pod)
}

// schedule implements the paper's policy: try to place the whole pod on
// the node with the most requested resources among those that fit
// (§5.3.1 "most requested"); if none fits and splitting is allowed,
// spread containers (biggest first) across the most-requested feasible
// nodes.
func (c *Cluster) schedule(spec PodSpec) ([]placement, error) {
	cpu, mem := spec.TotalCPU(), spec.TotalMemMB()

	if spec.NodeName != "" {
		for _, n := range c.nodes {
			if n.Name == spec.NodeName {
				if !n.fits(cpu, mem) {
					return nil, ErrUnschedulable{Pod: spec.Name}
				}
				return []placement{{node: n, specs: spec.Containers}}, nil
			}
		}
		return nil, ErrUnschedulable{Pod: spec.Name}
	}

	var whole []*Node
	for _, n := range c.nodes {
		if n.fits(cpu, mem) {
			whole = append(whole, n)
		}
	}
	if len(whole) > 0 {
		best := whole[0]
		for _, n := range whole[1:] {
			if n.RequestedFraction() > best.RequestedFraction() {
				best = n
			}
		}
		return []placement{{node: best, specs: spec.Containers}}, nil
	}

	if !spec.AllowSplit {
		return nil, ErrUnschedulable{Pod: spec.Name}
	}

	// Split: biggest container first, most-requested feasible node, with
	// tentative commitments so one node is not over-packed.
	specs := append([]ContainerSpec(nil), spec.Containers...)
	sort.SliceStable(specs, func(i, j int) bool {
		return specs[i].CPU+float64(specs[i].MemMB)/1024 > specs[j].CPU+float64(specs[j].MemMB)/1024
	})
	tentative := map[*Node][2]float64{} // cpu, mem committed during this pass
	byNode := map[*Node][]ContainerSpec{}
	var order []*Node
	for _, cs := range specs {
		var best *Node
		for _, n := range c.nodes {
			t := tentative[n]
			if n.FreeCPU()-t[0] >= cs.CPU && float64(n.FreeMemMB())-t[1] >= float64(cs.MemMB) {
				if best == nil || n.RequestedFraction() > best.RequestedFraction() {
					best = n
				}
			}
		}
		if best == nil {
			return nil, ErrUnschedulable{Pod: spec.Name}
		}
		t := tentative[best]
		tentative[best] = [2]float64{t[0] + cs.CPU, t[1] + float64(cs.MemMB)}
		if len(byNode[best]) == 0 {
			order = append(order, best)
		}
		byNode[best] = append(byNode[best], cs)
	}
	out := make([]placement, 0, len(order))
	for _, n := range order {
		out = append(out, placement{node: n, specs: byNode[n]})
	}
	return out, nil
}
