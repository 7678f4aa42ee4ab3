package netsim

import (
	"testing"
	"testing/quick"
)

func TestMACString(t *testing.T) {
	m := MAC{0x52, 0x54, 0x00, 0x01, 0x02, 0x03}
	if m.String() != "52:54:00:01:02:03" {
		t.Fatalf("String = %q", m.String())
	}
	if !BroadcastMAC.IsBroadcast() || m.IsBroadcast() {
		t.Fatal("broadcast detection wrong")
	}
	if !(MAC{}).IsZero() || m.IsZero() {
		t.Fatal("zero detection wrong")
	}
}

func TestMACAllocatorUnique(t *testing.T) {
	var a MACAllocator
	seen := map[MAC]bool{}
	for i := 0; i < 1000; i++ {
		m := a.Next()
		if seen[m] {
			t.Fatalf("duplicate MAC %s", m)
		}
		seen[m] = true
	}
}

func TestIPv4String(t *testing.T) {
	if s := IP(192, 168, 122, 1).String(); s != "192.168.122.1" {
		t.Fatalf("String = %q", s)
	}
}

func TestIPv4Predicates(t *testing.T) {
	if !IP(127, 0, 0, 1).IsLoopback() || IP(10, 0, 0, 1).IsLoopback() {
		t.Fatal("IsLoopback wrong")
	}
	if !(IPv4{}).IsZero() || IP(0, 0, 0, 1).IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustPrefix(IP(172, 17, 0, 0), 16)
	if !p.Contains(IP(172, 17, 200, 9)) {
		t.Fatal("must contain member")
	}
	if p.Contains(IP(172, 18, 0, 1)) {
		t.Fatal("must exclude outsider")
	}
	if p.String() != "172.17.0.0/16" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestPrefixNormalisesBase(t *testing.T) {
	p := MustPrefix(IP(10, 1, 2, 3), 24)
	if p.Addr != IP(10, 1, 2, 0) {
		t.Fatalf("base = %v, want 10.1.2.0", p.Addr)
	}
	if p.Host(5) != IP(10, 1, 2, 5) {
		t.Fatalf("Host(5) = %v", p.Host(5))
	}
}

func TestPrefixZeroMatchesAll(t *testing.T) {
	def := MustPrefix(IPv4{}, 0)
	for _, ip := range []IPv4{IP(1, 2, 3, 4), IP(255, 255, 255, 255), {}} {
		if !def.Contains(ip) {
			t.Fatalf("/0 must contain %v", ip)
		}
	}
}

func TestNewPrefixRejectsBadBits(t *testing.T) {
	if _, err := NewPrefix(IP(1, 1, 1, 1), 33); err == nil {
		t.Fatal("bits=33 accepted")
	}
	if _, err := NewPrefix(IP(1, 1, 1, 1), -1); err == nil {
		t.Fatal("bits=-1 accepted")
	}
}

// Property: an address always belongs to any prefix derived from it.
func TestPrefixSelfMembershipProperty(t *testing.T) {
	prop := func(a, b, c, d byte, bits uint8) bool {
		ip := IP(a, b, c, d)
		p, err := NewPrefix(ip, int(bits%33))
		if err != nil {
			return false
		}
		return p.Contains(ip)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: uint32 round-trips through ipFromUint32.
func TestIPv4Uint32RoundTripProperty(t *testing.T) {
	prop := func(a, b, c, d byte) bool {
		ip := IP(a, b, c, d)
		return ipFromUint32(ip.uint32()) == ip
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
