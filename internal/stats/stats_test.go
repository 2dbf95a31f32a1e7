package stats

import (
	"strings"
	"testing"
)

func TestMeanBasics(t *testing.T) {
	var m Mean
	if m.Value() != 0 {
		t.Fatal("empty mean not 0")
	}
	m.Add(10)
	m.Add(20)
	m.Add(30)
	if m.Value() != 20 {
		t.Fatalf("mean %f, want 20", m.Value())
	}
}

func TestMeanMerge(t *testing.T) {
	var a, b Mean
	a.Add(10)
	b.Add(30)
	b.Add(50)
	a.Merge(b)
	if a.Count != 3 || a.Value() != 30 {
		t.Fatalf("merged mean %f count %d", a.Value(), a.Count)
	}
}

func TestBreakdownAccounting(t *testing.T) {
	var b Breakdown
	b.Add(NoFree, 100)
	b.Add(Fault, 300)
	b.Add(Other, 600)
	if b.Total() != 1000 {
		t.Fatalf("total %d", b.Total())
	}
	f := b.Fractions()
	if f[NoFree] != 0.1 || f[Fault] != 0.3 || f[Other] != 0.6 {
		t.Fatalf("fractions %v", f)
	}
}

func TestBreakdownNegativePanics(t *testing.T) {
	var b Breakdown
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative charge")
		}
	}()
	b.Add(TLB, -1)
}

func TestBreakdownMerge(t *testing.T) {
	var a, b Breakdown
	a.Add(TLB, 5)
	b.Add(TLB, 7)
	b.Add(Transit, 2)
	a.Merge(b)
	if a.T[TLB] != 12 || a.T[Transit] != 2 {
		t.Fatalf("merged %v", a.T)
	}
}

func TestCategoryStrings(t *testing.T) {
	want := map[Category]string{
		NoFree: "NoFree", Transit: "Transit", Fault: "Fault",
		TLB: "TLB", Other: "Other",
	}
	for c, s := range want {
		if c.String() != s {
			t.Fatalf("%d -> %q, want %q", c, c.String(), s)
		}
	}
	if !strings.Contains(Category(99).String(), "99") {
		t.Fatal("unknown category string")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:   "Table X",
		Headers: []string{"App", "Value"},
	}
	tb.AddRow("em3d", "1.23")
	tb.AddRow("longername", "4")
	out := tb.String()
	if !strings.Contains(out, "Table X") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Columns aligned: 'Value' column starts at the same offset everywhere.
	hdrIdx := strings.Index(lines[1], "Value")
	rowIdx := strings.Index(lines[3], "1.23")
	if hdrIdx != rowIdx {
		t.Fatalf("misaligned columns:\n%s", out)
	}
}

func TestFmtHelpers(t *testing.T) {
	if FmtF(1.2345, 2) != "1.23" {
		t.Fatal(FmtF(1.2345, 2))
	}
	if FmtPct(0.42) != "42%" {
		t.Fatal(FmtPct(0.42))
	}
}

func TestTableWriteCSV(t *testing.T) {
	tb := &Table{Title: "T", Headers: []string{"A", "B"}}
	tb.AddRow("x,y", "2") // embedded comma must be quoted
	var buf strings.Builder
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "# T\n") {
		t.Fatalf("missing title comment: %q", out)
	}
	if !strings.Contains(out, `"x,y",2`) {
		t.Fatalf("embedded comma not quoted: %q", out)
	}
}

func TestBarChartRendering(t *testing.T) {
	c := &BarChart{
		Title:    "Fig",
		Width:    10,
		Segments: []string{"A", "B"},
	}
	c.AddBar("x/std", 0.5, 0.5)
	c.AddBar("x/nwc", 0.2, 0.1)
	out := c.String()
	if !strings.Contains(out, "Fig") || !strings.Contains(out, "#=A") {
		t.Fatalf("missing title/legend:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	full := lines[2]  // x/std row
	short := lines[3] // x/nwc row
	if strings.Count(full, "#") != 5 || strings.Count(full, "=") < 5 {
		t.Fatalf("full bar glyph counts wrong: %q", full)
	}
	if !strings.Contains(full, "1.000") {
		t.Fatalf("total missing: %q", full)
	}
	if strings.Count(short, "#") != 2 {
		t.Fatalf("short bar: %q", short)
	}
}

func TestBarChartNegativeClamped(t *testing.T) {
	c := &BarChart{Segments: []string{"A"}}
	c.AddBar("neg", -1)
	if !strings.Contains(c.String(), "0.000") {
		t.Fatal("negative value not clamped")
	}
}
