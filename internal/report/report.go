// Package report renders experiment output: aligned text tables for the
// terminal and CSV for downstream plotting. Every figure-regenerating
// command and benchmark prints through it, so rows stay comparable
// across runs.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid with a header row.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// New creates a table.
func New(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; values are stringified with %v, floats with 4
// significant digits.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

// WriteCSV renders the table as CSV (no quoting needed for our cells).
func (t *Table) WriteCSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Header, ","))
	for _, r := range t.Rows {
		fmt.Fprintln(w, strings.Join(r, ","))
	}
}

// String renders the text form.
func (t *Table) String() string {
	var b strings.Builder
	t.WriteText(&b)
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Percent renders a fraction as "12.3%".
func Percent(v float64) string {
	return fmt.Sprintf("%.1f%%", v*100)
}
