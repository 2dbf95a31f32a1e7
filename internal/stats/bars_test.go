package stats

import (
	"strings"
	"testing"
)

// A chart with no bars must still render its title and legend without
// panicking, and produce no bar rows.
func TestBarChartEmpty(t *testing.T) {
	c := &BarChart{Title: "Empty", Segments: []string{"A", "B"}}
	out := c.String()
	if !strings.HasPrefix(out, "Empty\n") {
		t.Fatalf("title missing:\n%s", out)
	}
	if !strings.Contains(out, "#=A") || !strings.Contains(out, "=B") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if got := strings.Count(out, "|"); got != 0 {
		t.Fatalf("expected no bar rows, found %d pipes:\n%s", got, out)
	}
}

// Width <= 0 falls back to the 50-glyph default scale instead of
// rendering zero-width (or negative-width) bars.
func TestBarChartZeroWidthDefaults(t *testing.T) {
	for _, w := range []int{0, -7} {
		c := &BarChart{Width: w, Segments: []string{"A"}}
		c.AddBar("full", 1.0)
		lines := strings.Split(strings.TrimRight(c.String(), "\n"), "\n")
		row := lines[len(lines)-1] // bar row; the legend also contains '#'
		if got := strings.Count(row, "#"); got != 50 {
			t.Fatalf("Width=%d: full bar rendered %d glyphs, want default 50: %q", w, got, row)
		}
	}
}

// A label wider than the bar area must not corrupt alignment: every
// row's bar starts right after its (equal-width) label column.
func TestBarChartLabelWiderThanWidth(t *testing.T) {
	c := &BarChart{Width: 4, Segments: []string{"A"}}
	long := "a-label-much-wider-than-four-glyphs"
	c.AddBar(long, 1.0)
	c.AddBar("s", 1.0)
	out := c.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want legend + 2 rows, got %d lines:\n%s", len(lines), out)
	}
	wantBar := "|####| 1.000"
	for _, row := range lines[1:] {
		i := strings.Index(row, "|")
		if i != len(long)+1 {
			t.Fatalf("bar column misaligned (pipe at %d, want %d): %q", i, len(long)+1, row)
		}
		if !strings.HasSuffix(row, wantBar) {
			t.Fatalf("row %q does not end with %q", row, wantBar)
		}
	}
}

// All-zero values produce an empty bar (adjacent pipes) and a 0.000
// total, not a crash or stray glyphs.
func TestBarChartZeroValues(t *testing.T) {
	c := &BarChart{Width: 8, Segments: []string{"A", "B"}}
	c.AddBar("z", 0, 0)
	out := c.String()
	if !strings.Contains(out, "|| 0.000") {
		t.Fatalf("zero bar rendered wrong:\n%s", out)
	}
}

// Sparkline maps 0 to the blank glyph and max to the densest one, one
// glyph per value.
func TestSparklineScaling(t *testing.T) {
	out := Sparkline([]float64{0, 0.5, 1}, 1)
	if len(out) != 3 {
		t.Fatalf("len %d", len(out))
	}
	if out[0] != ' ' {
		t.Fatalf("zero level %q", out[0])
	}
	if out[2] != '@' {
		t.Fatalf("max level %q", out[2])
	}
	// Degenerate max must not panic or divide by zero.
	if Sparkline([]float64{1}, 0) == "" {
		t.Fatal("empty sparkline")
	}
	// Values above max clamp to the top glyph instead of indexing out of
	// range; negatives clamp to blank.
	if got := Sparkline([]float64{2, -1}, 1); got != "@ " {
		t.Fatalf("clamping: got %q, want \"@ \"", got)
	}
}

// More segments than fill glyphs: the glyph set cycles rather than
// indexing out of range.
func TestBarChartGlyphCycle(t *testing.T) {
	n := len(segGlyphs) + 2
	segs := make([]string, n)
	vals := make([]float64, n)
	for i := range segs {
		segs[i] = "s"
		vals[i] = 0.02
	}
	c := &BarChart{Width: 50, Segments: segs}
	c.AddBar("cycle", vals...)
	out := c.String() // must not panic
	if !strings.Contains(out, string(segGlyphs[0])) {
		t.Fatalf("first glyph missing after cycle:\n%s", out)
	}
}
