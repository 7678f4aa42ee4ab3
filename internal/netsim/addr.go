// Package netsim is a packet-level simulation of the Linux networking
// substrate the paper builds on: Ethernet frames and IPv4 packets moving
// through network namespaces, learning bridges, veth pairs, TAP devices,
// netfilter hook chains with NAT and connection tracking, routing tables,
// ARP, and UDP/stream sockets.
//
// Every processing stage runs on a CPU (a sim.Station) with a calibrated
// service cost and is billed to a cpuacct category, so the macroscopic
// numbers the paper reports — throughput limited by the busiest CPU,
// latency as the sum of traversed stages, CPU breakdowns per entity —
// emerge from the same mechanics as on real hardware.
package netsim

import (
	"errors"
	"fmt"
)

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

// BroadcastMAC is the all-ones Ethernet broadcast address.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String formats the address in the usual colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether m is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == BroadcastMAC }

// IsZero reports whether m is the all-zero (unset) address.
func (m MAC) IsZero() bool { return m == MAC{} }

// MACAllocator hands out unique locally-administered MAC addresses.
type MACAllocator struct {
	next uint32
}

// Next returns a fresh unique MAC (52:54:00:xx:xx:xx, the QEMU OUI).
func (a *MACAllocator) Next() MAC {
	a.next++
	n := a.next
	return MAC{0x52, 0x54, 0x00, byte(n >> 16), byte(n >> 8), byte(n)}
}

// IPv4 is a 32-bit IP address.
type IPv4 [4]byte

// String formats the address in dotted-decimal form.
func (ip IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// IsZero reports whether ip is the unset address 0.0.0.0.
func (ip IPv4) IsZero() bool { return ip == IPv4{} }

// IsLoopback reports whether ip is in 127.0.0.0/8.
func (ip IPv4) IsLoopback() bool { return ip[0] == 127 }

// uint32 returns the address as a big-endian integer.
func (ip IPv4) uint32() uint32 {
	return uint32(ip[0])<<24 | uint32(ip[1])<<16 | uint32(ip[2])<<8 | uint32(ip[3])
}

// ipFromUint32 converts a big-endian integer back to an address.
func ipFromUint32(v uint32) IPv4 {
	return IPv4{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// IP builds an address from four octets; clearer than IPv4{...} literals
// at call sites.
func IP(a, b, c, d byte) IPv4 { return IPv4{a, b, c, d} }

// Prefix is an IPv4 CIDR prefix.
type Prefix struct {
	Addr IPv4
	Bits int // prefix length, 0..32
}

// ErrBadPrefix reports an out-of-range prefix length.
var ErrBadPrefix = errors.New("netsim: prefix length out of range")

// NewPrefix builds a prefix, normalising the address to its network base.
func NewPrefix(addr IPv4, bits int) (Prefix, error) {
	if bits < 0 || bits > 32 {
		return Prefix{}, ErrBadPrefix
	}
	p := Prefix{Addr: ipFromUint32(addr.uint32() & maskBits(bits)), Bits: bits}
	return p, nil
}

// MustPrefix is NewPrefix for static configuration; it panics on error.
func MustPrefix(addr IPv4, bits int) Prefix {
	p, err := NewPrefix(addr, bits)
	if err != nil {
		panic(err)
	}
	return p
}

func maskBits(bits int) uint32 {
	if bits <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - uint(bits))
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip IPv4) bool {
	return ip.uint32()&maskBits(p.Bits) == p.Addr.uint32()
}

// String formats the prefix as "a.b.c.d/n".
func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Addr, p.Bits) }

// Host returns the n-th host address inside the prefix (n=1 is the first
// usable address).
func (p Prefix) Host(n int) IPv4 {
	return ipFromUint32(p.Addr.uint32() + uint32(n))
}
