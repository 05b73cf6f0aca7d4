// Package bench regenerates the paper's evaluation (Section V): one
// function per figure, each returning a Table with the same series the
// paper plots. Byte volumes are computed analytically from the real
// mapping algorithms' placements (exact — the same arithmetic the
// functional path meters, validated against it in the tests), and transfer
// times come from replaying the coupling's transfer set through the
// flow-level torus model of torus.go.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is one reproduced figure: a title, column headers and formatted
// rows, plus free-form notes (experiment setup, expected shape).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row; values are used as-is.
func (t *Table) AddRow(values ...string) {
	t.Rows = append(t.Rows, values)
}

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, v := range row {
			if i < len(widths) && len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	line := func(parts []string) string {
		out := make([]string, len(parts))
		for i, p := range parts {
			out[i] = fmt.Sprintf("%-*s", widths[i], p)
		}
		return "  " + strings.Join(out, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.Columns)); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(sep)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// CSV writes the table as comma-separated values (header + rows).
func (t *Table) CSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = esc(c)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		vals := make([]string, len(row))
		for i, v := range row {
			vals[i] = esc(v)
		}
		if _, err := fmt.Fprintln(w, strings.Join(vals, ",")); err != nil {
			return err
		}
	}
	return nil
}

// gb formats bytes as gigabytes with six significant digits (small-scale
// runs move kilobytes, paper-scale runs move gigabytes).
func gb(bytes int64) string {
	return fmt.Sprintf("%.6g", float64(bytes)/1e9)
}

// ms formats seconds as milliseconds with one decimal.
func ms(seconds float64) string {
	return fmt.Sprintf("%.1f", seconds*1e3)
}

// pct formats a ratio as a percentage.
func pct(part, whole int64) string {
	if whole == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(whole))
}
