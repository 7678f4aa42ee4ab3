package report

// Metric is one row of a metrics table: a named instrument with a kind
// ("counter", "series", ...) and a pre-rendered or numeric value.
type Metric struct {
	Name  string
	Kind  string
	Value interface{}
}

// MetricsTable renders metrics in the given order as a table, with
// AddRow's cell formatting: 4 significant digits for numbers, anything
// else stringified verbatim.
func MetricsTable(title string, metrics []Metric) *Table {
	t := New(title, "instrument", "kind", "value")
	for _, m := range metrics {
		t.AddRow(m.Name, m.Kind, m.Value)
	}
	return t
}
