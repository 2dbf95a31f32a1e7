// Package exp is the experiment harness: it re-runs the paper's evaluation
// (§5) — Tables 2 through 8 and the execution-time breakdowns of Figures 3
// and 4 — and renders each as an ASCII table next to the paper's reported
// values where useful.
//
// A Suite caches one simulation per (app, machine kind, prefetch mode)
// cell with the paper's per-configuration minimum-free-frames settings, so
// every table derives from the same consistent set of runs.
package exp

import (
	"fmt"
	"io"

	"nwcache/internal/core"
	"nwcache/internal/exp/pool"
	"nwcache/internal/machine"
	"nwcache/internal/stats"
	"nwcache/internal/workload"
)

// Suite runs and caches the evaluation matrix. All simulations go through
// a shared pool.Pool, so identical cells requested by different tables
// (or by a concurrent sweep sharing the same pool) run exactly once.
type Suite struct {
	cfg   core.Config
	sched *pool.Pool
	// Progress, if set, is called with a label for each simulation that
	// is actually started (cache hits are silent).
	Progress func(label string)
	// observe is attached to every cell as its core.Cell.Obs hook; see
	// AddObserver.
	observe func(core.Cell, *machine.Machine)
}

// NewSuiteOn creates an empty suite over the given base configuration,
// scheduling on p (whose memo cache it shares with any other consumer of
// p). The minimum-free-frames floor is overridden per cell with the
// paper's choices (see core.PaperMinFree).
func NewSuiteOn(cfg core.Config, p *pool.Pool) *Suite {
	return &Suite{cfg: cfg, sched: p}
}

// AddObserver appends fn to the hook every cell carries as its
// core.Cell.Obs, composing with the observers already added (earlier
// ones fire first). It fires with the freshly built machine for each
// simulation actually executed (memoized cells are served from cache
// without a machine). Several independent consumers — manifest metrics,
// span tracing, time-series samplers, live -watch views — can then each
// attach to every fresh simulation without knowing about one another.
// Call before the first submission.
func (s *Suite) AddObserver(fn func(core.Cell, *machine.Machine)) {
	if fn == nil {
		return
	}
	prev := s.observe
	if prev == nil {
		s.observe = fn
		return
	}
	s.observe = func(c core.Cell, m *machine.Machine) {
		prev(c, m)
		fn(c, m)
	}
}

// cell builds the pool cell for one matrix coordinate, applying the
// paper's per-configuration minimum-free-frames floor.
func (s *Suite) cell(app string, kind core.Kind, mode core.PrefetchMode) core.Cell {
	return core.Cell{App: app, Kind: kind, Mode: mode,
		Cfg: core.ApplyPaperMinFree(s.cfg, kind, mode), Obs: s.observe}
}

// submit schedules one cell, reporting progress if it is fresh work.
func (s *Suite) submit(app string, kind core.Kind, mode core.PrefetchMode) *pool.Future {
	c := s.cell(app, kind, mode)
	f, fresh := s.sched.Submit(c)
	if fresh && s.Progress != nil {
		s.Progress(c.Label())
	}
	return f
}

// Prewarm runs every cell of the evaluation matrix, as many at once as
// the suite's pool allows (each simulation is single-threaded and fully
// independent, so this is safe and near-linear). Subsequent table
// generation is then instantaneous. The argument is unused: the pool
// fixed the concurrency bound when it was built.
func (s *Suite) Prewarm(int) error {
	var futs []*pool.Future
	for _, app := range s.Apps() {
		for _, kind := range []core.Kind{core.Standard, core.NWCache} {
			for _, mode := range []core.PrefetchMode{core.Naive, core.Optimal} {
				futs = append(futs, s.submit(app, kind, mode))
			}
		}
	}
	// Collect in submission order so the first error is deterministic.
	var firstErr error
	for _, f := range futs {
		if _, err := f.Wait(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Get runs (or returns the cached) cell.
func (s *Suite) Get(app string, kind core.Kind, mode core.PrefetchMode) (*core.Result, error) {
	return s.submit(app, kind, mode).Wait()
}

// Apps returns the application list in paper order.
func (s *Suite) Apps() []string { return core.Apps() }

// Table2 reproduces Table 2: application footprints.
func (s *Suite) Table2() *stats.Table {
	t := &stats.Table{
		Title:   "Table 2: Application Data Sizes",
		Headers: []string{"Application", "Data (MB)", "Paper (MB)"},
	}
	paper := map[string]string{
		"em3d": "2.5", "fft": "3.1", "gauss": "2.3", "lu": "2.7",
		"mg": "2.4", "radix": "2.6", "sor": "2.6",
	}
	reg := workload.Registry(s.cfg.Scale, s.cfg.Seed)
	for _, app := range s.Apps() {
		mb := float64(reg[app].DataPages()) * float64(s.cfg.PageSize) / (1 << 20)
		t.AddRow(app, stats.FmtF(mb, 2), paper[app])
	}
	return t
}

// swapTable renders average swap-out times for a prefetch mode in the
// given unit (divisor pcycles).
func (s *Suite) swapTable(mode core.PrefetchMode, title, unit string, div float64) (*stats.Table, error) {
	t := &stats.Table{
		Title:   title,
		Headers: []string{"Application", "Standard (" + unit + ")", "NWCache (" + unit + ")", "Ratio"},
	}
	for _, app := range s.Apps() {
		std, err := s.Get(app, core.Standard, mode)
		if err != nil {
			return nil, err
		}
		nwc, err := s.Get(app, core.NWCache, mode)
		if err != nil {
			return nil, err
		}
		ratio := 0.0
		if nwc.AvgSwapTime > 0 {
			ratio = std.AvgSwapTime / nwc.AvgSwapTime
		}
		t.AddRow(app,
			stats.FmtF(std.AvgSwapTime/div, 1),
			stats.FmtF(nwc.AvgSwapTime/div, 1),
			stats.FmtF(ratio, 1)+"x")
	}
	return t, nil
}

// Table3 reproduces Table 3: average swap-out times under optimal
// prefetching, in millions of pcycles.
func (s *Suite) Table3() (*stats.Table, error) {
	return s.swapTable(core.Optimal,
		"Table 3: Average Swap-Out Times under Optimal Prefetching", "Mpcycles", 1e6)
}

// Table4 reproduces Table 4: average swap-out times under naive
// prefetching, in thousands of pcycles.
func (s *Suite) Table4() (*stats.Table, error) {
	return s.swapTable(core.Naive,
		"Table 4: Average Swap-Out Times under Naive Prefetching", "Kpcycles", 1e3)
}

// combiningTable renders average write combining for a prefetch mode.
func (s *Suite) combiningTable(mode core.PrefetchMode, title string) (*stats.Table, error) {
	t := &stats.Table{
		Title:   title,
		Headers: []string{"Application", "Standard", "NWCache", "Increase"},
	}
	for _, app := range s.Apps() {
		std, err := s.Get(app, core.Standard, mode)
		if err != nil {
			return nil, err
		}
		nwc, err := s.Get(app, core.NWCache, mode)
		if err != nil {
			return nil, err
		}
		inc := 0.0
		if std.Combining > 0 {
			inc = nwc.Combining/std.Combining - 1
		}
		t.AddRow(app,
			stats.FmtF(std.Combining, 2),
			stats.FmtF(nwc.Combining, 2),
			stats.FmtPct(inc))
	}
	return t, nil
}

// Table5 reproduces Table 5: write combining under optimal prefetching.
func (s *Suite) Table5() (*stats.Table, error) {
	return s.combiningTable(core.Optimal, "Table 5: Average Write Combining under Optimal Prefetching")
}

// Table6 reproduces Table 6: write combining under naive prefetching.
func (s *Suite) Table6() (*stats.Table, error) {
	return s.combiningTable(core.Naive, "Table 6: Average Write Combining under Naive Prefetching")
}

// Table7 reproduces Table 7: NWCache page-read hit rates under both
// prefetching techniques.
func (s *Suite) Table7() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Table 7: NWCache Hit Rates (%)",
		Headers: []string{"Application", "Naive", "Optimal"},
	}
	for _, app := range s.Apps() {
		naive, err := s.Get(app, core.NWCache, core.Naive)
		if err != nil {
			return nil, err
		}
		opt, err := s.Get(app, core.NWCache, core.Optimal)
		if err != nil {
			return nil, err
		}
		t.AddRow(app,
			stats.FmtF(naive.RingHitRate*100, 1),
			stats.FmtF(opt.RingHitRate*100, 1))
	}
	return t, nil
}

// Table8 reproduces Table 8: average page-fault latency for disk cache
// hits under naive prefetching (a contention estimate), in Kpcycles.
func (s *Suite) Table8() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Table 8: Average Page-Fault Latency for Disk Cache Hits under Naive Prefetching (Kpcycles)",
		Headers: []string{"Application", "Standard", "NWCache", "Reduction"},
	}
	for _, app := range s.Apps() {
		std, err := s.Get(app, core.Standard, core.Naive)
		if err != nil {
			return nil, err
		}
		nwc, err := s.Get(app, core.NWCache, core.Naive)
		if err != nil {
			return nil, err
		}
		red := 0.0
		if std.FaultHitLat > 0 {
			red = 1 - nwc.FaultHitLat/std.FaultHitLat
		}
		t.AddRow(app,
			stats.FmtF(std.FaultHitLat/1e3, 1),
			stats.FmtF(nwc.FaultHitLat/1e3, 1),
			stats.FmtPct(red))
	}
	return t, nil
}

// Figure renders the normalized execution-time breakdown of Figure 3
// (optimal prefetching) or Figure 4 (naive prefetching): per application,
// the Standard and NWCache bars split into NoFree / Transit / Fault / TLB
// / Other, normalized to the standard machine's total.
func (s *Suite) Figure(mode core.PrefetchMode) (*stats.Table, error) {
	figure := "Figure 3 (Optimal Prefetching)"
	if mode == core.Naive {
		figure = "Figure 4 (Naive Prefetching)"
	}
	t := &stats.Table{
		Title: figure + ": Normalized Execution Time Breakdown",
		Headers: []string{"Application", "Machine", "NoFree", "Transit",
			"Fault", "TLB", "Other", "Total"},
	}
	for _, app := range s.Apps() {
		std, err := s.Get(app, core.Standard, mode)
		if err != nil {
			return nil, err
		}
		nwc, err := s.Get(app, core.NWCache, mode)
		if err != nil {
			return nil, err
		}
		base := float64(std.ExecTime)
		row := func(label string, r *core.Result) {
			// Average the per-node breakdowns, normalize to the standard
			// machine's execution time (the paper's bar height).
			n := float64(len(r.PerNode))
			var parts [stats.NumCategories]float64
			for _, b := range r.PerNode {
				for c := 0; c < int(stats.NumCategories); c++ {
					parts[c] += float64(b.T[c]) / n
				}
			}
			t.AddRow(app, label,
				stats.FmtF(parts[stats.NoFree]/base, 3),
				stats.FmtF(parts[stats.Transit]/base, 3),
				stats.FmtF(parts[stats.Fault]/base, 3),
				stats.FmtF(parts[stats.TLB]/base, 3),
				stats.FmtF(parts[stats.Other]/base, 3),
				stats.FmtF(float64(r.ExecTime)/base, 3))
		}
		row("standard", std)
		row("nwcache", nwc)
	}
	return t, nil
}

// FigureBars renders Figure 3 or 4 as stacked ASCII bars, one pair of
// bars (standard above NWCache) per application, normalized to the
// standard machine — the closest terminal rendition of the paper's
// figures.
func (s *Suite) FigureBars(mode core.PrefetchMode) (*stats.BarChart, error) {
	figure := "Figure 3 (Optimal Prefetching)"
	if mode == core.Naive {
		figure = "Figure 4 (Naive Prefetching)"
	}
	chart := &stats.BarChart{
		Title:    figure + ": Normalized Execution Time",
		Width:    60,
		Segments: []string{"NoFree", "Transit", "Fault", "TLB", "Other"},
	}
	for _, app := range s.Apps() {
		std, err := s.Get(app, core.Standard, mode)
		if err != nil {
			return nil, err
		}
		nwc, err := s.Get(app, core.NWCache, mode)
		if err != nil {
			return nil, err
		}
		base := float64(std.ExecTime)
		addBar := func(label string, r *core.Result) {
			n := float64(len(r.PerNode))
			vals := make([]float64, stats.NumCategories)
			for _, b := range r.PerNode {
				for c := 0; c < int(stats.NumCategories); c++ {
					vals[c] += float64(b.T[c]) / n / base
				}
			}
			chart.AddBar(label, vals...)
		}
		addBar(app+"/std", std)
		addBar(app+"/nwc", nwc)
	}
	return chart, nil
}

// Overall summarizes the headline result: NWCache execution-time
// improvement per application and prefetch mode.
func (s *Suite) Overall() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Overall: NWCache Execution-Time Improvement",
		Headers: []string{"Application", "Optimal", "Naive"},
	}
	for _, app := range s.Apps() {
		row := []string{app}
		for _, mode := range []core.PrefetchMode{core.Optimal, core.Naive} {
			std, err := s.Get(app, core.Standard, mode)
			if err != nil {
				return nil, err
			}
			nwc, err := s.Get(app, core.NWCache, mode)
			if err != nil {
				return nil, err
			}
			imp := 1 - float64(nwc.ExecTime)/float64(std.ExecTime)
			row = append(row, stats.FmtPct(imp))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Tables generates every table and figure in paper order.
func (s *Suite) Tables() ([]*stats.Table, error) {
	out := []*stats.Table{s.Table2()}
	for _, gen := range []func() (*stats.Table, error){
		s.Table3, s.Table4, s.Table5, s.Table6, s.Table7, s.Table8,
		func() (*stats.Table, error) { return s.Figure(core.Optimal) },
		func() (*stats.Table, error) { return s.Figure(core.Naive) },
		s.Overall,
	} {
		t, err := gen()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// WriteAll renders every table and figure to w as aligned text.
func (s *Suite) WriteAll(w io.Writer) error {
	tables, err := s.Tables()
	if err != nil {
		return err
	}
	for _, t := range tables {
		fmt.Fprintln(w, t)
	}
	return nil
}

// WriteAllCSV renders every table and figure to w as CSV sections.
func (s *Suite) WriteAllCSV(w io.Writer) error {
	tables, err := s.Tables()
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.WriteCSV(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
