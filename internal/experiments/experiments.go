// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) on the simulated substrate. Each experiment is a
// deterministic function of a seed, returns a typed result, and can render
// itself as an aligned text table whose rows mirror what the paper plots.
// cmd/cdas-experiments renders them from the command line.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Table is a rendered experiment result: the series the paper plots.
type Table struct {
	ID      string // "fig6", "table4", ...
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string // shape expectation being demonstrated
}

// String renders the table with aligned columns.
func (t Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", strings.ToUpper(t.ID), t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Generator produces one experiment's table under a seed.
type Generator func(seed uint64) (Table, error)

// registry maps experiment IDs to generators, in paper order.
var registry = []struct {
	id  string
	gen Generator
}{
	{"table4", Table4},
	{"fig5", Figure5},
	{"fig6", Figure6},
	{"fig7", Figure7},
	{"fig8", Figure8},
	{"fig9", Figure9},
	{"fig10", Figure10},
	{"fig11", Figure11},
	{"fig12", Figure12},
	{"fig13", Figure13},
	{"fig14", Figure14},
	{"fig15", Figure15},
	{"fig16", Figure16},
	{"fig17", Figure17},
	{"fig18", Figure18},
}

// IDs lists all experiment IDs in paper order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Lookup returns the generator for an experiment ID.
func Lookup(id string) (Generator, bool) {
	for _, e := range registry {
		if e.id == id {
			return e.gen, true
		}
	}
	return nil, false
}

// RunAll executes every experiment with the given base seed and returns
// the tables in paper order, stopping at the first error.
func RunAll(seed uint64) ([]Table, error) {
	out := make([]Table, 0, len(registry))
	for _, e := range registry {
		tbl, err := e.gen(seed)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", e.id, err)
		}
		out = append(out, tbl)
	}
	return out, nil
}

// fmtF renders a float with 3 decimals (the paper's precision).
func fmtF(v float64) string { return fmt.Sprintf("%.3f", v) }

// fmtPct renders a ratio as a percentage with one decimal.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// sortedKeys returns the sorted keys of a string-keyed map.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
