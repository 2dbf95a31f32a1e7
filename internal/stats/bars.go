package stats

import (
	"fmt"
	"strings"
)

// BarChart renders horizontal stacked bars — the terminal rendition of
// the paper's Figures 3 and 4. Each bar is a label plus stacked segments;
// widths are normalized against the chart's Scale (1.0 = full width).
type BarChart struct {
	Title    string
	Width    int      // glyphs at Scale 1.0 (default 50)
	Segments []string // segment names, in stacking order
	bars     []bar
}

type bar struct {
	label  string
	values []float64
}

// segGlyphs are the fill characters per segment, cycled.
var segGlyphs = []byte{'#', '=', '+', ':', '.', '%', '@'}

// AddBar appends one bar; values align with Segments.
func (c *BarChart) AddBar(label string, values ...float64) {
	c.bars = append(c.bars, bar{label: label, values: values})
}

// String renders the chart.
func (c *BarChart) String() string {
	width := c.Width
	if width <= 0 {
		width = 50
	}
	labelW := 0
	for _, b := range c.bars {
		if len(b.label) > labelW {
			labelW = len(b.label)
		}
	}
	var sb strings.Builder
	if c.Title != "" {
		sb.WriteString(c.Title)
		sb.WriteByte('\n')
	}
	// Legend.
	sb.WriteString(strings.Repeat(" ", labelW+2))
	for i, s := range c.Segments {
		if i > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "%c=%s", segGlyphs[i%len(segGlyphs)], s)
	}
	sb.WriteByte('\n')
	for _, b := range c.bars {
		fmt.Fprintf(&sb, "%-*s |", labelW, b.label)
		total := 0.0
		cells := 0
		for i, v := range b.values {
			if v < 0 {
				v = 0
			}
			total += v
			n := int(v*float64(width) + 0.5)
			cells += n
			sb.Write(bytesRepeat(segGlyphs[i%len(segGlyphs)], n))
		}
		fmt.Fprintf(&sb, "| %.3f\n", total)
	}
	return sb.String()
}

func bytesRepeat(b byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

// sparkGlyphs are the fill levels for sparklines, low to high.
var sparkGlyphs = []byte(" .:-=+*#%@")

// Sparkline renders values scaled against max as one glyph per value —
// the one-line time-series companion to BarChart, shared by nwtrace's
// ring timeline and the live -watch dashboard.
func Sparkline(values []float64, max float64) string {
	if max <= 0 {
		max = 1
	}
	out := make([]byte, len(values))
	for i, v := range values {
		lvl := int(v / max * float64(len(sparkGlyphs)-1))
		if lvl < 0 {
			lvl = 0
		}
		if lvl >= len(sparkGlyphs) {
			lvl = len(sparkGlyphs) - 1
		}
		out[i] = sparkGlyphs[lvl]
	}
	return string(out)
}
