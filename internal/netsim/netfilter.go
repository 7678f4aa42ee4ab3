package netsim

import "fmt"

// Netfilter is the per-namespace packet-mangling state: DNAT rules
// (PREROUTING), SNAT/masquerade rules (POSTROUTING), and the connection
// tracking table that keeps established flows consistent in both
// directions. This mirrors the iptables NAT setup Docker and the VMM use
// in the paper's vanilla nested configuration.
type Netfilter struct {
	ns   *NetNS
	dnat []DNATRule
	snat []SNATRule

	// nat maps a flow tuple as observed at a hook to the tuple it must be
	// rewritten to. Entries are installed in both directions when a rule
	// first matches, so replies translate back automatically.
	nat map[FlowTuple]FlowTuple

	// Translations counts applied rewrites (diagnostics).
	Translations uint64
}

func newNetfilter(ns *NetNS) *Netfilter {
	return &Netfilter{ns: ns, nat: make(map[FlowTuple]FlowTuple)}
}

// DNATRule redirects traffic aimed at a published address/port to a
// backend — Docker's `-p hostPort:containerPort` and the orchestrator's
// service forwarding.
type DNATRule struct {
	Proto   Proto
	DstIP   IPv4 // zero matches any local destination
	DstPort uint16
	ToIP    IPv4
	ToPort  uint16
}

// SNATRule rewrites the source of traffic leaving via an interface —
// MASQUERADE for a private subnet.
type SNATRule struct {
	SrcNet Prefix // flows whose source matches are translated
	OutDev string // only when leaving via this interface ("" = any)
	// ToIP overrides the translated source; zero means use the egress
	// interface address (masquerade).
	ToIP IPv4
}

// AddDNAT appends a destination-NAT rule.
func (nf *Netfilter) AddDNAT(r DNATRule) { nf.dnat = append(nf.dnat, r) }

// AddMasquerade appends a source-NAT rule.
func (nf *Netfilter) AddMasquerade(r SNATRule) { nf.snat = append(nf.snat, r) }

// ConntrackLen returns the number of tracked translations (both
// directions counted).
func (nf *Netfilter) ConntrackLen() int { return len(nf.nat) }

// matchDNAT returns the first DNAT rule matching p, or nil.
func (nf *Netfilter) matchDNAT(p *Packet) *DNATRule {
	for i := range nf.dnat {
		r := &nf.dnat[i]
		if r.Proto != p.Proto || r.DstPort != p.DstPort {
			continue
		}
		if !r.DstIP.IsZero() && r.DstIP != p.Dst {
			continue
		}
		if r.DstIP.IsZero() && !nf.ns.isLocalAddr(p.Dst) {
			continue
		}
		return r
	}
	return nil
}

// WouldTranslate reports, without side effects, whether PREROUTING
// would rewrite this packet (established translation or DNAT match).
func (nf *Netfilter) WouldTranslate(p *Packet) bool {
	if _, ok := nf.nat[p.Tuple()]; ok {
		return true
	}
	return nf.matchDNAT(p) != nil
}

// prerouting applies established translations and DNAT rules to an
// incoming packet. It reports whether a rewrite occurred.
func (nf *Netfilter) prerouting(p *Packet) bool {
	t := p.Tuple()
	if to, ok := nf.nat[t]; ok {
		nf.apply(p, to)
		return true
	}
	if r := nf.matchDNAT(p); r != nil {
		to := t
		to.Dst = r.ToIP
		to.DstPort = r.ToPort
		nf.install(t, to)
		nf.apply(p, to)
		return true
	}
	return false
}

// postrouting applies established translations and SNAT rules to a
// packet leaving via out. It reports whether a rewrite occurred.
func (nf *Netfilter) postrouting(p *Packet, out *Iface) bool {
	t := p.Tuple()
	if to, ok := nf.nat[t]; ok {
		nf.apply(p, to)
		return true
	}
	for _, r := range nf.snat {
		if !r.SrcNet.Contains(p.Src) {
			continue
		}
		if r.OutDev != "" && r.OutDev != out.Name {
			continue
		}
		toIP := r.ToIP
		if toIP.IsZero() {
			toIP = out.Addr
		}
		to := t
		to.Src = toIP
		to.SrcPort = nf.allocSNATPort(to, t.SrcPort)
		nf.install(t, to)
		nf.apply(p, to)
		return true
	}
	return false
}

// allocSNATPort keeps the original source port when the reverse mapping
// is free, otherwise allocates an unused one — the conntrack port
// collision rule.
func (nf *Netfilter) allocSNATPort(to FlowTuple, orig uint16) uint16 {
	probe := to
	probe.SrcPort = orig
	if _, taken := nf.nat[probe.Reverse()]; !taken {
		return orig
	}
	return nf.ns.allocPort(func(p uint16) bool {
		probe.SrcPort = p
		_, taken := nf.nat[probe.Reverse()]
		return taken
	})
}

// install records the translation and its reply-direction inverse.
func (nf *Netfilter) install(from, to FlowTuple) {
	nf.nat[from] = to
	nf.nat[to.Reverse()] = from.Reverse()
}

func (nf *Netfilter) apply(p *Packet, to FlowTuple) {
	p.Src, p.Dst = to.Src, to.Dst
	p.SrcPort, p.DstPort = to.SrcPort, to.DstPort
	nf.Translations++
}

// String summarises the filter state.
func (nf *Netfilter) String() string {
	return fmt.Sprintf("netfilter(%s): %d dnat, %d snat, %d tracked",
		nf.ns.Name, len(nf.dnat), len(nf.snat), len(nf.nat))
}
