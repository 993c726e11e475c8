// Package table renders fixed-width text tables for the CLI and the
// experiment reports, mirroring the row/column layout of the paper's
// Table 1 without any external dependency.
package table

import (
	"fmt"
	"strings"
)

// Align controls horizontal cell alignment.
type Align int

// Alignment choices.
const (
	Left Align = iota
	Right
	Center
)

// Table is a simple text table builder. The zero value is not usable;
// construct with New.
type Table struct {
	headers []string
	aligns  []Align
	rows    [][]string
	title   string
}

// New creates a table with the given column headers. Columns default to
// left alignment.
func New(headers ...string) *Table {
	t := &Table{headers: headers, aligns: make([]Align, len(headers))}
	return t
}

// SetTitle sets an optional title printed above the table.
func (t *Table) SetTitle(title string) *Table {
	t.title = title
	return t
}

// SetAlign sets the alignment of column i. Out-of-range indices are ignored.
func (t *Table) SetAlign(i int, a Align) *Table {
	if i >= 0 && i < len(t.aligns) {
		t.aligns[i] = a
	}
	return t
}

// AlignAll sets every column to the given alignment.
func (t *Table) AlignAll(a Align) *Table {
	for i := range t.aligns {
		t.aligns[i] = a
	}
	return t
}

// AddRow appends a row. Cells are stringified with %v; missing cells are
// blank, extra cells are dropped.
func (t *Table) AddRow(cells ...any) *Table {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = fmt.Sprintf("%v", cells[i])
		}
	}
	t.rows = append(t.rows, row)
	return t
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRule := func() {
		for i, w := range widths {
			if i > 0 {
				b.WriteString("-+-")
			}
			b.WriteString(strings.Repeat("-", w))
		}
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, w := range widths {
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(pad(cells[i], w, t.aligns[i]))
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	writeRule()
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

func pad(s string, w int, a Align) string {
	gap := w - len(s)
	if gap <= 0 {
		return s
	}
	switch a {
	case Right:
		return strings.Repeat(" ", gap) + s
	case Center:
		l := gap / 2
		return strings.Repeat(" ", l) + s + strings.Repeat(" ", gap-l)
	default:
		return s + strings.Repeat(" ", gap)
	}
}
