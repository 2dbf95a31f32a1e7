// Package stats provides the measurement primitives used throughout the
// simulator: counters, running means, and per-processor execution-time
// breakdowns matching the categories of the paper's Figures 3 and 4
// (NoFree, Transit, Fault, TLB, Other).
package stats

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Mean accumulates a running arithmetic mean.
type Mean struct {
	Sum   float64
	Count uint64
}

// Add records one sample.
func (m *Mean) Add(v float64) {
	m.Sum += v
	m.Count++
}

// Value returns the current mean, or 0 with no samples.
func (m *Mean) Value() float64 {
	if m.Count == 0 {
		return 0
	}
	return m.Sum / float64(m.Count)
}

// Merge folds other into m.
func (m *Mean) Merge(other Mean) {
	m.Sum += other.Sum
	m.Count += other.Count
}

// Category is one component of the execution-time breakdown in the paper's
// Figures 3 and 4.
type Category int

// Breakdown categories, top to bottom of the paper's bars.
const (
	NoFree  Category = iota // stalled waiting for a free page frame
	Transit                 // waiting for another node's in-flight fetch
	Fault                   // page-fault service (disk / ring read)
	TLB                     // TLB miss + shootdown + interrupt overhead
	Other                   // compute, cache miss, synchronization
	NumCategories
)

// String returns the paper's label for the category.
func (c Category) String() string {
	switch c {
	case NoFree:
		return "NoFree"
	case Transit:
		return "Transit"
	case Fault:
		return "Fault"
	case TLB:
		return "TLB"
	case Other:
		return "Other"
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// Breakdown accumulates time per category for one processor.
type Breakdown struct {
	T [NumCategories]int64
}

// Add charges d pcycles to category c.
func (b *Breakdown) Add(c Category, d int64) {
	if d < 0 {
		panic(fmt.Sprintf("stats: negative charge %d to %v", d, c))
	}
	b.T[c] += d
}

// Total returns the sum across categories.
func (b *Breakdown) Total() int64 {
	var s int64
	for _, v := range b.T {
		s += v
	}
	return s
}

// Merge folds other into b.
func (b *Breakdown) Merge(other Breakdown) {
	for i := range b.T {
		b.T[i] += other.T[i]
	}
}

// Fractions returns each category as a fraction of the total (zeros if the
// total is zero).
func (b *Breakdown) Fractions() [NumCategories]float64 {
	var f [NumCategories]float64
	tot := b.Total()
	if tot == 0 {
		return f
	}
	for i, v := range b.T {
		f[i] = float64(v) / float64(tot)
	}
	return f
}

// Table renders rows of labeled columns as an aligned ASCII table, in the
// style used by cmd/nwbench to reproduce the paper's tables.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends one row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return sb.String()
}

// WriteCSV emits the table as CSV: a comment line with the title, the
// header row, then the data rows.
func (t *Table) WriteCSV(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
			return err
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// FmtF formats a float with the given decimals, trimming to a compact form.
func FmtF(v float64, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, v)
}

// FmtPct formats a fraction as a percentage string like "42%".
func FmtPct(frac float64) string {
	return fmt.Sprintf("%.0f%%", frac*100)
}
