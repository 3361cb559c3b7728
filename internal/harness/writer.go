package harness

import (
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment artifact: one paper table/figure panel.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// WriteTSV emits the table as tab-separated values, preceded by a title
// comment line.
func (t *Table) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Join(t.Header, "\t")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteText emits the table with aligned columns for terminal reading.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
		return err
	}
	writeRow := func(cells []string) error {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		_, err := fmt.Fprintln(w, sb.String())
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", sum(widths)+2*(len(widths)-1))); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// WriteTables renders a set of tables in the requested format ("tsv" or
// anything else for aligned text).
func WriteTables(w io.Writer, tables []Table, format string) error {
	for i := range tables {
		var err error
		if format == "tsv" {
			err = tables[i].WriteTSV(w)
		} else {
			err = tables[i].WriteText(w)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
