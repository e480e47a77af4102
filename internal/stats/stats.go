// Package stats provides the presentation helpers shared by the experiment
// drivers — text histograms (for the Figure 5 dataset-distribution views)
// and fixed-width tables rendered in the style of the paper's tables — and
// the latency Recorder that the load harness and the server's metrics both
// record into. It imports nothing from this module.
package stats

import (
	"fmt"
	"strings"
)

// Histogram counts samples into equal-width bins over [lo, hi]; samples
// outside the range are clamped into the edge bins.
type Histogram struct {
	Lo, Hi float64
	Counts []int
}

// NewHistogram bins the samples. bins must be >= 1 and hi > lo.
func NewHistogram(xs []float64, lo, hi float64, bins int) *Histogram {
	if bins < 1 {
		panic(fmt.Sprintf("stats: %d bins", bins))
	}
	if hi <= lo {
		panic(fmt.Sprintf("stats: empty range [%v,%v]", lo, hi))
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	for _, x := range xs {
		i := int(float64(bins) * (x - lo) / (hi - lo))
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		h.Counts[i]++
	}
	return h
}

// Table renders fixed-width text tables in the style of the paper.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v, and float64 cells with
// two decimals.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// CSV renders the table as RFC-4180 CSV with the title as a comment line,
// for machine consumption (plotting the figures, diffing runs).
func (t *Table) CSV() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "# %s\n", t.Title)
	}
	writeCSVRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeCSVRow(t.Headers)
	for _, row := range t.rows {
		writeCSVRow(row)
	}
	return b.String()
}

// Render draws the table with columns padded to their widest cell. Cells
// beyond the last header are kept, as in CSV, and not padded.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
