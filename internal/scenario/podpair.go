package scenario

import (
	"fmt"

	"nestless/internal/hostlo"
	"nestless/internal/kube"
	"nestless/internal/netsim"
	"nestless/internal/overlay"
)

// CCMode selects the intra-pod container-to-container transport (§5.3).
type CCMode string

// Container-to-container modes.
const (
	// CCSameNode places both containers in one pod on one VM: they talk
	// over the pod's loopback — the paper's baseline.
	CCSameNode CCMode = "samenode"
	// CCHostlo splits the pod across two VMs with a Hostlo localhost.
	CCHostlo CCMode = "hostlo"
	// CCNAT runs the containers as separate pods on two VMs talking
	// through both VMs' NAT layers (vanilla nested networking).
	CCNAT CCMode = "nat"
	// CCOverlay connects the two VMs' containers with a Docker-like
	// VXLAN overlay.
	CCOverlay CCMode = "overlay"
)

// OverlayNet is the overlay scenarios' subnet.
var OverlayNet = netsim.MustPrefix(netsim.IP(10, 100, 0, 0), 24)

// PodPair is a deployed container-to-container experiment: container A
// (the client side) and container B (the server side).
type PodPair struct {
	*Base
	Mode CCMode

	// ANS/BNS are the two containers' namespaces (identical for
	// SameNode).
	ANS, BNS *netsim.NetNS
	// DialAddr is where A reaches B: 127.0.0.1 for SameNode, B's Hostlo
	// endpoint, B's VM address (published ports) for NAT, or B's overlay
	// address.
	DialAddr netsim.IPv4
	// AEntity/BEntity are the cpuacct entities of the two sides.
	AEntity, BEntity string

	// Overlay is set under CCOverlay (for ablations on batching).
	Overlay *overlay.Network
	// HostloDev is set under CCHostlo (for ablations on fan-out).
	HostloDev *hostlo.Device
}

// NewPodPair builds a §5.3 topology with telemetry and fault injection
// off. ports lists B's server ports (published 1:1 under CCNAT).
func NewPodPair(seed int64, mode CCMode, ports ...uint16) (*PodPair, error) {
	return NewPodPairCfg(Config{Seed: seed}, mode, ports...)
}

// NewPodPairCfg is the fully parameterized constructor: telemetry
// (Config.Rec) and fault injection (Config.Faults) are installed before
// the topology is built, so deployment itself runs under the fault
// schedule.
func NewPodPairCfg(cfg Config, mode CCMode, ports ...uint16) (*PodPair, error) {
	b := NewBaseCfg(cfg)
	n1 := b.AddNode("vm1", HostBridgeNet.Host(10))
	pp := &PodPair{Base: b, Mode: mode}

	deploy := func(spec kube.PodSpec) (*kube.Pod, error) {
		var pod *kube.Pod
		var derr error
		b.Cluster.Deploy(spec, func(p *kube.Pod, err error) { pod, derr = p, err })
		b.Eng.Run()
		return pod, derr
	}

	switch mode {
	case CCSameNode:
		pod, err := deploy(kube.PodSpec{
			Name: "pod",
			Containers: []kube.ContainerSpec{
				{Name: "a", Image: "app", CPU: 2, MemMB: 512},
				{Name: "b", Image: "app", CPU: 2, MemMB: 512},
			},
		})
		if err != nil {
			return nil, err
		}
		part := pod.Parts[0]
		pp.ANS, pp.BNS = part.Sandbox.NS, part.Sandbox.NS
		pp.DialAddr = netsim.IP(127, 0, 0, 1)
		pp.AEntity, pp.BEntity = "app/pod", "app/pod"
		return pp, nil

	case CCHostlo:
		b.AddNode("vm2", HostBridgeNet.Host(11))
		// Two 4-core containers cannot fit one 5-core VM: forced split.
		pod, err := deploy(kube.PodSpec{
			Name:       "pod",
			AllowSplit: true,
			Containers: []kube.ContainerSpec{
				{Name: "a", Image: "app", CPU: 4, MemMB: 1024},
				{Name: "b", Image: "app", CPU: 4, MemMB: 1024},
			},
		})
		if err != nil {
			return nil, err
		}
		if !pod.Split() {
			return nil, fmt.Errorf("scenario: hostlo pod was not split")
		}
		pa, pb := pod.Parts[0], pod.Parts[1]
		pp.ANS, pp.BNS = pa.Sandbox.NS, pb.Sandbox.NS
		pp.DialAddr = pb.LocalAddr
		pp.AEntity, pp.BEntity = "app/pod", "app/pod"
		pp.HostloDev = b.Host.Hostlo(pod.HostloID)
		return pp, nil

	case CCNAT:
		b.AddNode("vm2", HostBridgeNet.Host(11))
		podA, err := deploy(kube.PodSpec{
			Name:     "pod-a",
			NodeName: "vm1",
			Containers: []kube.ContainerSpec{
				{Name: "a", Image: "app", CPU: 2, MemMB: 512},
			},
		})
		if err != nil {
			return nil, err
		}
		podB, err := deploy(kube.PodSpec{
			Name:     "pod-b",
			NodeName: "vm2",
			Containers: []kube.ContainerSpec{
				{Name: "b", Image: "app", CPU: 2, MemMB: 512, Ports: portMaps(ports)},
			},
		})
		if err != nil {
			return nil, err
		}
		pp.ANS, pp.BNS = podA.Parts[0].Sandbox.NS, podB.Parts[0].Sandbox.NS
		pp.DialAddr = HostBridgeNet.Host(11) // VM2, DNAT to the container
		pp.AEntity, pp.BEntity = "app/pod-a", "app/pod-b"
		return pp, nil

	case CCOverlay:
		n2 := b.AddNode("vm2", HostBridgeNet.Host(11))
		ovl := overlay.NewNetwork("ovl", OverlayNet)
		v1, err := ovl.Join(n1.VM, HostBridgeNet.Host(10))
		if err != nil {
			return nil, err
		}
		v2, err := ovl.Join(n2.VM, HostBridgeNet.Host(11))
		if err != nil {
			return nil, err
		}
		n1.CNI.Register(overlay.NewAttachment(ovl, v1))
		n2.CNI.Register(overlay.NewAttachment(ovl, v2))
		podA, err := deploy(kube.PodSpec{
			Name: "pod-a", NodeName: "vm1", Network: "overlay",
			Containers: []kube.ContainerSpec{{Name: "a", Image: "app", CPU: 2, MemMB: 512}},
		})
		if err != nil {
			return nil, err
		}
		podB, err := deploy(kube.PodSpec{
			Name: "pod-b", NodeName: "vm2", Network: "overlay",
			Containers: []kube.ContainerSpec{{Name: "b", Image: "app", CPU: 2, MemMB: 512}},
		})
		if err != nil {
			return nil, err
		}
		pp.ANS, pp.BNS = podA.Parts[0].Sandbox.NS, podB.Parts[0].Sandbox.NS
		pp.DialAddr = podB.Parts[0].PodIP
		pp.AEntity, pp.BEntity = "app/pod-a", "app/pod-b"
		pp.Overlay = ovl
		return pp, nil
	}
	return nil, fmt.Errorf("scenario: unknown mode %q", mode)
}
