package report

import (
	"strings"
	"testing"
)

func TestMetricsTable(t *testing.T) {
	tab := MetricsTable("m", []Metric{
		{Name: "a", Kind: "counter", Value: 3.14159},
		{Name: "b", Kind: "series", Value: "n=2"},
	})
	if len(tab.Header) != 3 {
		t.Fatalf("header = %v, want instrument, kind, value", tab.Header)
	}
	s := tab.String()
	if !strings.Contains(s, "3.142") || !strings.Contains(s, "n=2") {
		t.Fatalf("rendered table:\n%s", s)
	}
}
