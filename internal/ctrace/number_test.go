package ctrace

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// TestCSVFieldCount pins the field count a malformed row reports.
func TestCSVFieldCount(t *testing.T) {
	cases := []struct {
		line string
		got  int
	}{
		{"1000,0,j1,0,alice", 5},
		{"1000,0,j1,0,alice,0.25,0.5,extra", 8},
		{"1000,0,j1,0,alice,0.25,0.5,x,y", 9},
	}
	for _, tc := range cases {
		_, err := parseCSVLine(tc.line)
		if err == nil {
			t.Fatalf("%q: accepted", tc.line)
		}
		want := "got " + strconv.Itoa(tc.got)
		if !strings.HasSuffix(err.Error(), want) {
			t.Fatalf("%q: error %q, want it to end in %q", tc.line, err, want)
		}
	}
}

// numberEdges are the fields at the edges of parseInt's and
// parseDecimal's fast paths: where they must decode exactly, and the
// first shapes they must hand to strconv.
var numberEdges = []string{
	"0", "00012", ".5", "5.", "0.", ".0", ".", "", "..5", "5..", "5.5.",
	"0.0041", "113715", "1", "0.25",
	"123456789012345", "1234567890123456", "12345678901234567", // 15-17 digits
	"0.123456789012345", "0.1234567890123456", "0.12345678901234567",
	"9007199254740992", "9007199254740993", // 2^53, 2^53+1
	"900719925474099.2", "900719925474099.3",
	"0000000000000000000000009007199254740992",              // leading zeros are free
	"0.0000000000000000000001", "0.00000000000000000000001", // 22, 23 fraction digits
	"1.0000000000000000000000", "1.00000000000000000000000",
	"1e-05", "1E5", "+0.5", "-0", "-0.5", "0x1p-2", "1_0", "Inf", "-Inf", "NaN", "inf",
	" 1", "1 ", "1,5", "١",
	"9223372036854775807", "9223372036854775808", // int64 max, max+1
	"999999999999999999", "1000000000000000000", "-9223372036854775808",
	"000000000000000000000000000001",
}

// TestParseDecimalMatchesStrconv is the deterministic half of the
// fuzz differential: parseInt and parseFloat must agree with strconv —
// bit for bit on success, error text for error text otherwise — on the
// edge list and on seeded values formatted the ways trace writers do.
func TestParseDecimalMatchesStrconv(t *testing.T) {
	checkFloat := func(s string) bool {
		got, gerr := parseFloat([]byte(s))
		want, werr := strconv.ParseFloat(s, 64)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("parseFloat(%q): error %v, strconv %v", s, gerr, werr)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parseFloat(%q) = %v (%#x), strconv %v (%#x)",
				s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		_, fast := parseDecimal([]byte(s))
		return fast
	}
	checkInt := func(s string) {
		got, gerr := parseInt([]byte(s))
		want, werr := strconv.ParseInt(s, 10, 64)
		if got != want || (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("parseInt(%q) = %d, %v; strconv %d, %v", s, got, gerr, want, werr)
		}
	}
	for _, s := range numberEdges {
		checkFloat(s)
		checkInt(s)
	}
	// The fast path must actually take the shapes it claims.
	for _, s := range []string{".5", "5.", "0", "00012", "9007199254740992", "0.0000000000000000000001"} {
		if _, ok := parseDecimal([]byte(s)); !ok {
			t.Fatalf("parseDecimal(%q) fell back", s)
		}
	}
	for _, s := range []string{"9007199254740993", "0.00000000000000000000001", "1e-05", "+0.5", "-0", "."} {
		if _, ok := parseDecimal([]byte(s)); ok {
			t.Fatalf("parseDecimal(%q) took the fast path", s)
		}
	}

	r := rand.New(rand.NewSource(17))
	const n = 500_000
	fast := 0
	for i := 0; i < n; i++ {
		var v float64
		switch i % 4 {
		case 0: // a trace request: a few significant digits in [0,1]
			v = float64(r.Intn(100_000)) / math.Pow(10, float64(1+r.Intn(6)))
		case 1: // a full-precision fraction
			v = r.Float64()
		case 2: // any magnitude
			v = r.Float64() * math.Pow(10, float64(r.Intn(40)-20))
		default: // any finite bit pattern
			v = math.Abs(math.Float64frombits(r.Uint64()))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = float64(r.Int63())
			}
		}
		if checkFloat(strconv.FormatFloat(v, 'g', -1, 64)) {
			fast++
		}
		if checkFloat(strconv.FormatFloat(v, 'f', r.Intn(26), 64)) {
			fast++
		}
		checkInt(strconv.FormatInt(r.Int63()>>uint(r.Intn(63)), 10))
	}
	if fast < n/2 {
		t.Fatalf("fast path took only %d of %d fields", fast, 2*n)
	}
}
