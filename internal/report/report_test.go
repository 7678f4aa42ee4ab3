package report

import (
	"strings"
	"testing"
)

func TestTableTextAlignment(t *testing.T) {
	tab := New("Title", "name", "value")
	tab.AddRow("short", 1)
	tab.AddRow("a-much-longer-name", 123.4567)
	out := tab.String()
	if !strings.HasPrefix(out, "Title\n") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Columns align: the value column starts at the same offset.
	hdr, row := lines[1], lines[4]
	if strings.Index(hdr, "value") != strings.Index(row, "123.5") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tab := New("x", "a", "b")
	tab.AddRow(1, 2.5)
	var b strings.Builder
	tab.WriteCSV(&b)
	want := "a,b\n1,2.5\n"
	if b.String() != want {
		t.Fatalf("CSV = %q, want %q", b.String(), want)
	}
}

func TestFloatFormatting(t *testing.T) {
	tab := New("", "v")
	tab.AddRow(1234.5678)
	tab.AddRow(float32(2.0))
	if tab.Rows[0][0] != "1235" {
		t.Fatalf("float64 cell = %q", tab.Rows[0][0])
	}
	if tab.Rows[1][0] != "2" {
		t.Fatalf("float32 cell = %q", tab.Rows[1][0])
	}
}

func TestPercent(t *testing.T) {
	if Percent(0.114) != "11.4%" {
		t.Fatalf("Percent = %q", Percent(0.114))
	}
}
