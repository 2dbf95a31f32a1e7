package exp

import (
	"bytes"
	"strings"
	"testing"

	"nwcache/internal/core"
	"nwcache/internal/exp/pool"
	"nwcache/internal/machine"
)

// fastSuite uses a shrunken workload so the whole matrix runs in seconds.
func fastSuite() *Suite {
	cfg := core.DefaultConfig()
	cfg.Scale = 0.1
	cfg.MemPerNode = 16 * cfg.PageSize
	return NewSuiteOn(cfg, pool.New(0))
}

func TestSuiteCachesRuns(t *testing.T) {
	s := fastSuite()
	calls := 0
	s.Progress = func(string) { calls++ }
	if _, err := s.Get("sor", core.Standard, core.Naive); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("sor", core.Standard, core.Naive); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("ran %d simulations for one cell, want 1 (cached)", calls)
	}
}

func TestTable2ListsAllApps(t *testing.T) {
	s := fastSuite()
	out := s.Table2().String()
	for _, app := range core.Apps() {
		if !strings.Contains(out, app) {
			t.Fatalf("table 2 missing %s:\n%s", app, out)
		}
	}
}

func TestSwapTablesRender(t *testing.T) {
	s := fastSuite()
	t3, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t3.String(), "Mpcycles") {
		t.Fatal("table 3 missing unit")
	}
	t4, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t4.String(), "Kpcycles") {
		t.Fatal("table 4 missing unit")
	}
}

func TestCombiningWithinPhysicalBounds(t *testing.T) {
	s := fastSuite()
	for _, app := range core.Apps() {
		for _, kind := range []core.Kind{core.Standard, core.NWCache} {
			r, err := s.Get(app, kind, core.Naive)
			if err != nil {
				t.Fatal(err)
			}
			slots := float64(s.cfg.DiskCacheSlots())
			if r.Combining < 0 || r.Combining > slots {
				t.Fatalf("%s/%v: combining %f outside [0,%f]", app, kind, r.Combining, slots)
			}
		}
	}
}

func TestHitRatesWithinBounds(t *testing.T) {
	s := fastSuite()
	for _, app := range core.Apps() {
		for _, mode := range []core.PrefetchMode{core.Naive, core.Optimal} {
			r, err := s.Get(app, core.NWCache, mode)
			if err != nil {
				t.Fatal(err)
			}
			if r.RingHitRate < 0 || r.RingHitRate > 1 {
				t.Fatalf("%s/%v: hit rate %f", app, mode, r.RingHitRate)
			}
		}
	}
}

func TestFigureNormalizationAnchorsStandardAtOne(t *testing.T) {
	s := fastSuite()
	fig, err := s.Figure(core.Naive)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range fig.Rows {
		if row[1] == "standard" && row[len(row)-1] != "1.000" {
			t.Fatalf("standard bar not normalized to 1.000: %v", row)
		}
	}
}

func TestWriteAllProducesEveryArtifact(t *testing.T) {
	s := fastSuite()
	var buf bytes.Buffer
	if err := s.WriteAll(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 2", "Table 3", "Table 4", "Table 5", "Table 6",
		"Table 7", "Table 8", "Figure 3", "Figure 4", "Overall",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteAll output missing %q", want)
		}
	}
}

func TestOverallImprovementDirection(t *testing.T) {
	// At the small test scale the exact percentages vary, but the NWCache
	// machine should never lose badly on average across the suite.
	s := fastSuite()
	var sum float64
	n := 0
	for _, app := range core.Apps() {
		std, err := s.Get(app, core.Standard, core.Optimal)
		if err != nil {
			t.Fatal(err)
		}
		nwc, err := s.Get(app, core.NWCache, core.Optimal)
		if err != nil {
			t.Fatal(err)
		}
		sum += 1 - float64(nwc.ExecTime)/float64(std.ExecTime)
		n++
	}
	if avg := sum / float64(n); avg < 0 {
		t.Fatalf("NWCache loses on average under optimal prefetching: %f", avg)
	}
}

func TestPrewarmFillsMatrixInParallel(t *testing.T) {
	s := fastSuite()
	if err := s.Prewarm(4); err != nil {
		t.Fatal(err)
	}
	// Every cell must now be served from cache: Progress must not fire.
	s.Progress = func(label string) { t.Errorf("cache miss after prewarm: %s", label) }
	var buf bytes.Buffer
	if err := s.WriteAll(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestPrewarmPropagatesErrors(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Scale = 0.1
	cfg.PageSize = 3000 // invalid (not a power of two): every run fails
	s := NewSuiteOn(cfg, pool.New(2))
	if err := s.Prewarm(2); err == nil {
		t.Fatal("invalid config not reported")
	}
}

func TestWriteAllCSV(t *testing.T) {
	s := fastSuite()
	var buf bytes.Buffer
	if err := s.WriteAllCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# Table 3") {
		t.Fatal("CSV missing table 3 section")
	}
	if !strings.Contains(out, "Application,") {
		t.Fatal("CSV missing header row")
	}
}

func TestPrewarmMatchesSequentialResults(t *testing.T) {
	// Parallel execution must not perturb determinism: each simulation is
	// isolated, so prewarmed results equal sequentially computed ones.
	a := fastSuite()
	if err := a.Prewarm(8); err != nil {
		t.Fatal(err)
	}
	b := fastSuite()
	for _, app := range []string{"sor", "fft"} {
		ra, err := a.Get(app, core.NWCache, core.Naive)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Get(app, core.NWCache, core.Naive)
		if err != nil {
			t.Fatal(err)
		}
		if ra.ExecTime != rb.ExecTime || ra.Faults != rb.Faults {
			t.Fatalf("%s: parallel (%d,%d) != sequential (%d,%d)",
				app, ra.ExecTime, ra.Faults, rb.ExecTime, rb.Faults)
		}
	}
}

func TestReportRendersAllSections(t *testing.T) {
	s := fastSuite()
	var buf bytes.Buffer
	if err := s.Report(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# NWCache reproduction report",
		"## Table 2", "## Table 3", "## Table 4", "## Table 5",
		"## Table 6", "## Table 7", "## Table 8", "## Overall",
		"| em3d |", "| sor |",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestFigureBarsRender(t *testing.T) {
	s := fastSuite()
	chart, err := s.FigureBars(core.Naive)
	if err != nil {
		t.Fatal(err)
	}
	out := chart.String()
	if !strings.Contains(out, "Figure 4") {
		t.Fatal("wrong title")
	}
	for _, app := range core.Apps() {
		if !strings.Contains(out, app+"/std") || !strings.Contains(out, app+"/nwc") {
			t.Fatalf("missing bars for %s:\n%s", app, out)
		}
	}
	// Standard bars are normalized to ~1.000.
	if !strings.Contains(out, "1.000") {
		t.Fatal("standard bar not normalized")
	}
}

func TestPaperValuesCoverAllApps(t *testing.T) {
	for name, pv := range map[string]PaperValues{
		"t2": PaperTable2MB, "t3s": PaperTable3Std, "t3n": PaperTable3NWC,
		"t4s": PaperTable4Std, "t4n": PaperTable4NWC,
		"t5s": PaperTable5Std, "t5n": PaperTable5NWC,
		"t6s": PaperTable6Std, "t6n": PaperTable6NWC,
		"t7n": PaperTable7Naive, "t7o": PaperTable7Optimal,
		"t8s": PaperTable8Std, "t8n": PaperTable8NWC,
	} {
		for _, app := range core.Apps() {
			if v, ok := pv[app]; !ok || v <= 0 {
				t.Fatalf("%s: missing/invalid paper value for %s", name, app)
			}
		}
	}
}

// AddObserver composes with the observers already added (earlier ones
// first) and fires only for fresh simulations, never for cache hits.
func TestAddObserverComposes(t *testing.T) {
	s := fastSuite()
	var order []string
	s.AddObserver(func(c core.Cell, m *machine.Machine) {
		order = append(order, "first:"+c.Label())
	})
	s.AddObserver(func(c core.Cell, m *machine.Machine) {
		if m == nil {
			t.Error("observer fired without a machine")
		}
		order = append(order, "second:"+c.Label())
	})
	s.AddObserver(nil) // must be ignored
	if _, err := s.Get("sor", core.Standard, core.Naive); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || !strings.HasPrefix(order[0], "first:") || !strings.HasPrefix(order[1], "second:") {
		t.Fatalf("observer order %v, want [first:... second:...]", order)
	}
	// Cache hit: neither observer fires again.
	if _, err := s.Get("sor", core.Standard, core.Naive); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Fatalf("observers fired on a cached run: %v", order)
	}
}

// AddObserver on a suite with no prior hook installs the observer alone.
func TestAddObserverWithoutBase(t *testing.T) {
	s := fastSuite()
	fired := 0
	s.AddObserver(func(core.Cell, *machine.Machine) { fired++ })
	if _, err := s.Get("sor", core.Standard, core.Naive); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("observer fired %d times, want 1", fired)
	}
}
