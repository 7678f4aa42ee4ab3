package container

import (
	"fmt"

	"nestless/internal/netsim"
)

// bridgeNAT is the engine's default network: a veth pair onto docker0,
// an address from the bridge subnet, a default route through the bridge
// gateway, MASQUERADE for egress (installed once at engine start) and a
// DNAT rule per published port. This is the in-VM half of the paper's
// "duplicate network virtualization" — the layer BrFusion removes.
type bridgeNAT struct {
	e *Engine
}

// Name identifies the provisioner.
func (p *bridgeNAT) Name() string { return "bridge-nat" }

// Provision pays the veth + bridge + iptables setup time, then wires the
// namespace.
func (p *bridgeNAT) Provision(c *Container, ports []PortMap, done func(netsim.IPv4, error)) {
	e := p.e
	op := e.cfg.Net.Rec.OpBegin("cni/bridge-nat", "provision "+c.Name)
	steps := []namedStep{{"veth-create", vethCreateStep}, {"bridge-attach", bridgeAttachStep}, {"iface-config", ifaceConfigStep}}
	// One iptables invocation for the per-container MASQUERADE return
	// rule, plus one per published port.
	for i := 0; i < 1+len(ports); i++ {
		steps = append(steps, namedStep{"iptables-rule", iptablesRuleStep})
	}
	e.stepRunner(c, steps, func(err error) {
		if err != nil {
			// Nothing was wired yet: the failing step is always before
			// the veth/bridge work below, so there is nothing to undo.
			op.End(err)
			done(netsim.IPv4{}, err)
			return
		}
		ip := e.allocIP()
		ctrEnd, nodeEnd := netsim.NewVethPair(c.NS, "eth0", e.cfg.NS, "veth-"+c.Name)
		ctrEnd.SetAddr(ip, bridgeNet)
		e.bridge.AddPort(nodeEnd)
		c.NS.AddRoute(netsim.Route{
			Dst: netsim.MustPrefix(netsim.IPv4{}, 0),
			Via: e.bridge.Iface().Addr,
			Dev: "eth0",
		})
		for _, pm := range ports {
			e.cfg.NS.Filter.AddDNAT(netsim.DNATRule{
				Proto:   pm.Proto,
				DstPort: pm.NodePort,
				ToIP:    ip,
				ToPort:  pm.CtrPort,
			})
		}
		op.End(nil)
		done(ip, nil)
	})()
}

// Release detaches the container's veth from the bridge. Releasing a
// container that holds no attachment (never provisioned, or released
// twice) is an error.
func (p *bridgeNAT) Release(c *Container) error {
	e := p.e
	removed := false
	if nodeEnd := e.cfg.NS.Iface("veth-" + c.Name); nodeEnd != nil {
		e.bridge.RemovePort(nodeEnd)
		e.cfg.NS.RemoveIface(nodeEnd.Name)
		removed = true
	}
	if ctrEnd := c.NS.Iface("eth0"); ctrEnd != nil {
		c.NS.RemoveIface("eth0")
		removed = true
	}
	if !removed {
		return fmt.Errorf("container: bridge-nat has no attachment for %q", c.Name)
	}
	return nil
}
