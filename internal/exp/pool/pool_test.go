package pool

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"nwcache/internal/core"
	"nwcache/internal/machine"
)

func fastCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.Scale = 0.05
	cfg.Seed = 1
	return cfg
}

func cell(app string, kind core.Kind, mode core.PrefetchMode) core.Cell {
	return core.Cell{App: app, Kind: kind, Mode: mode,
		Cfg: core.ApplyPaperMinFree(fastCfg(), kind, mode)}
}

func TestSubmitMemoizes(t *testing.T) {
	p := New(2)
	c := cell("lu", core.Standard, core.Optimal)
	f1, fresh1 := p.Submit(c)
	f2, fresh2 := p.Submit(c)
	if !fresh1 || fresh2 {
		t.Fatalf("fresh = %v, %v, want true, false", fresh1, fresh2)
	}
	r1, err := f1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("memoized submissions returned different result pointers")
	}
	if runs, hits := p.Stats(); runs != 1 || hits != 1 {
		t.Fatalf("Stats = (%d runs, %d hits), want (1, 1)", runs, hits)
	}
}

func TestConcurrentSubmitRunsOnce(t *testing.T) {
	p := New(4)
	c := cell("gauss", core.NWCache, core.Naive)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Run(c); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if runs, _ := p.Stats(); runs != 1 {
		t.Fatalf("runs = %d, want 1", runs)
	}
}

func TestCellKeyDiscriminates(t *testing.T) {
	base := cell("lu", core.NWCache, core.Optimal)
	same := cell("lu", core.NWCache, core.Optimal)
	if base.Key() != same.Key() {
		t.Fatal("equal cells hash differently")
	}
	variants := []core.Cell{
		cell("gauss", core.NWCache, core.Optimal),
		cell("lu", core.Standard, core.Optimal),
		cell("lu", core.NWCache, core.Naive),
	}
	cfgVar := base
	cfgVar.Cfg.Scale = 0.06
	rrVar := base
	rrVar.Cfg.DrainRoundRobin = true
	variants = append(variants, cfgVar, rrVar)
	for i, v := range variants {
		if v.Key() == base.Key() {
			t.Errorf("variant %d collides with base key", i)
		}
	}
}

func TestParallelResultsMatchSerial(t *testing.T) {
	cells := []core.Cell{
		cell("lu", core.Standard, core.Naive),
		cell("lu", core.NWCache, core.Naive),
		cell("gauss", core.Standard, core.Naive),
		cell("gauss", core.NWCache, core.Naive),
	}
	run := func(workers int) []int64 {
		p := New(workers)
		futs := make([]*Future, len(cells))
		for i, c := range cells {
			futs[i], _ = p.Submit(c)
		}
		out := make([]int64, len(cells))
		for i, f := range futs {
			r, err := f.Wait()
			if err != nil {
				t.Fatal(err)
			}
			out[i] = r.ExecTime
		}
		return out
	}
	serial, par := run(1), run(4)
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("cell %d: serial exec %d != parallel exec %d", i, serial[i], par[i])
		}
	}
}

// TestRunSeedsMatchesSequential checks the aggregate against mean, min
// and max computed here from one core.Run per seed.
func TestRunSeedsMatchesSequential(t *testing.T) {
	cfg := fastCfg() // em3d is seed-randomized, so the aggregate is nontrivial
	const n = 3
	got, err := RunSeeds(New(4), "em3d", core.NWCache, core.Optimal, cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	want := core.SeedAggregate{Runs: n}
	for i := 0; i < n; i++ {
		runCfg := cfg
		runCfg.Seed = cfg.Seed + int64(i)
		res, err := core.Run("em3d", core.NWCache, core.Optimal, runCfg)
		if err != nil {
			t.Fatal(err)
		}
		want.MeanExec += float64(res.ExecTime) / n
		want.MeanRingHitRate += res.RingHitRate / n
		want.MeanSwapTime += res.AvgSwapTime / n
		if i == 0 || res.ExecTime < want.MinExec {
			want.MinExec = res.ExecTime
		}
		if res.ExecTime > want.MaxExec {
			want.MaxExec = res.ExecTime
		}
	}
	if *got != want {
		t.Fatalf("pool aggregate %+v != per-seed aggregate %+v", *got, want)
	}
}

// seedCfg is a small, memory-pressured configuration for the seed
// fan-out tests.
func seedCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.Scale = 0.1
	cfg.MemPerNode = 16 * cfg.PageSize
	return cfg
}

func TestRunSeedsAggregates(t *testing.T) {
	agg, err := RunSeeds(New(2), "radix", core.NWCache, core.Naive, seedCfg(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Runs != 3 {
		t.Fatalf("runs %d", agg.Runs)
	}
	if agg.MinExec <= 0 || agg.MaxExec < agg.MinExec {
		t.Fatalf("exec range [%d,%d]", agg.MinExec, agg.MaxExec)
	}
	if agg.MeanExec < float64(agg.MinExec) || agg.MeanExec > float64(agg.MaxExec) {
		t.Fatalf("mean %f outside [%d,%d]", agg.MeanExec, agg.MinExec, agg.MaxExec)
	}
	if agg.Spread() < 0 {
		t.Fatalf("spread %f", agg.Spread())
	}
}

func TestRunSeedsSeedInvariantApp(t *testing.T) {
	// SOR has no randomized pattern: all seeds give identical runs.
	agg, err := RunSeeds(New(2), "sor", core.Standard, core.Naive, seedCfg(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if agg.MinExec != agg.MaxExec {
		t.Fatalf("sor varied across seeds: [%d,%d]", agg.MinExec, agg.MaxExec)
	}
	if agg.Spread() != 0 {
		t.Fatalf("spread %f", agg.Spread())
	}
}

func TestRunSeedsPropagatesErrors(t *testing.T) {
	if _, err := RunSeeds(New(2), "nosuch", core.Standard, core.Naive, seedCfg(), 2); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestSubmitPropagatesErrors(t *testing.T) {
	p := New(1)
	bad := cell("lu", core.Standard, core.Optimal)
	bad.Cfg.PageSize = 3000 // not a power of two: machine construction fails
	if _, err := p.Run(bad); err == nil {
		t.Fatal("expected configuration error")
	}
}

func TestWorkersDefault(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Fatal("New(0) must select a positive worker count")
	}
	if got := New(3).Workers(); got != 3 {
		t.Fatalf("Workers = %d, want 3", got)
	}
}

// badCell builds a distinct, instantly-erroring cell (unknown app): the
// cheapest way to churn the memo cache in bulk.
func badCell(i int) core.Cell {
	cfg := fastCfg()
	cfg.Seed = int64(i + 100)
	return core.Cell{App: "no-such-app", Kind: core.Standard, Mode: core.Naive, Cfg: cfg}
}

func TestMemoBoundedByLRU(t *testing.T) {
	const limit = 4
	p := New(1)
	p.SetMemoLimit(limit)
	cells := make([]core.Cell, 10)
	for i := range cells {
		cells[i] = badCell(i)
		f, fresh := p.Submit(cells[i])
		if !fresh {
			t.Fatalf("cell %d: expected a fresh submission", i)
		}
		f.Wait() // complete before the next submit: deterministic LRU order
		if got := p.MemoLen(); got > limit {
			t.Fatalf("after %d cells: MemoLen = %d, exceeds limit %d", i+1, got, limit)
		}
	}
	if got := p.MemoLen(); got != limit {
		t.Fatalf("MemoLen = %d, want %d", got, limit)
	}
	p.mu.Lock()
	evicts := p.evicts
	p.mu.Unlock()
	if evicts != len(cells)-limit {
		t.Fatalf("evicts = %d, want %d", evicts, len(cells)-limit)
	}
	// The most recent cells are retained; the oldest were evicted and
	// resubmit as fresh work.
	if _, fresh := p.Submit(cells[len(cells)-1]); fresh {
		t.Fatal("most recent cell was evicted")
	}
	if f, fresh := p.Submit(cells[0]); !fresh {
		t.Fatal("oldest cell survived beyond the memo bound")
	} else {
		f.Wait()
	}
}

func TestSetMemoLimitShrinkEvictsImmediately(t *testing.T) {
	p := New(1)
	for i := 0; i < 6; i++ {
		f, _ := p.Submit(badCell(i))
		f.Wait()
	}
	p.SetMemoLimit(2)
	if got := p.MemoLen(); got != 2 {
		t.Fatalf("MemoLen after shrink = %d, want 2", got)
	}
	p.SetMemoLimit(0) // unbounded again
	for i := 6; i < 12; i++ {
		f, _ := p.Submit(badCell(i))
		f.Wait()
	}
	if got := p.MemoLen(); got != 8 {
		t.Fatalf("MemoLen unbounded = %d, want 8", got)
	}
}

func TestSubmitRecoversPanickingCell(t *testing.T) {
	p := New(2)
	boom := cell("lu", core.Standard, core.Naive)
	// The Obs hook fires inside Cell.Run on the worker goroutine, so a
	// panicking hook models any crash inside the simulation itself.
	boom.Obs = func(core.Cell, *machine.Machine) { panic("injected test crash") }
	res, err := p.Run(boom)
	if err == nil {
		t.Fatal("panicking cell returned no error")
	}
	if res != nil {
		t.Fatalf("panicking cell returned a result: %+v", res)
	}
	for _, frag := range []string{boom.Label(), "panicked", "injected test crash",
		boom.Key()[:12], "pool_test.go"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("panic error %q missing %q", err, frag)
		}
	}
	// The pool survives: sibling cells still complete normally.
	if _, err := p.Run(cell("lu", core.NWCache, core.Naive)); err != nil {
		t.Fatalf("pool broken after a panicking cell: %v", err)
	}
}

// A panic inside the simulation (an event callback, not the hook itself)
// surfaces from the engine's Run on the worker goroutine, so the pool
// quarantines it like any other crash and sibling cells still complete.
func TestProcPanicIsQuarantined(t *testing.T) {
	p := New(2)
	boom := cell("lu", core.Standard, core.Naive)
	boom.Obs = func(_ core.Cell, m *machine.Machine) {
		m.E.At(10, func() { panic("proc crash") })
	}
	_, err := p.Run(boom)
	var perr *PanicError
	if !errors.As(err, &perr) || perr.Value != "proc crash" {
		t.Fatalf("err = %v, want *PanicError carrying the proc's panic", err)
	}
	if _, err := p.Run(cell("lu", core.NWCache, core.Naive)); err != nil {
		t.Fatalf("sibling cell after a proc panic: %v", err)
	}
}

func TestPanicErrorIsTyped(t *testing.T) {
	p := New(1)
	boom := cell("lu", core.Standard, core.Naive)
	boom.Obs = func(core.Cell, *machine.Machine) { panic("typed crash") }
	_, err := p.Run(boom)
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("panic error is %T, want *PanicError", err)
	}
	if perr.Value != "typed crash" || perr.Key != boom.Key() || len(perr.Stack) == 0 {
		t.Fatalf("PanicError fields incomplete: value=%v key=%.12s stack=%d bytes",
			perr.Value, perr.Key, len(perr.Stack))
	}
}

func TestWaitTimeout(t *testing.T) {
	p := New(1)
	release := make(chan struct{})
	slow := cell("lu", core.Standard, core.Naive)
	slow.Obs = func(core.Cell, *machine.Machine) { <-release }
	f, fresh := p.Submit(slow)
	if !fresh {
		t.Fatal("expected fresh submission")
	}
	if _, _, ok := f.WaitTimeout(10 * time.Millisecond); ok {
		t.Fatal("WaitTimeout reported a blocked cell done")
	}
	close(release)
	res, err, ok := f.WaitTimeout(30 * time.Second)
	if !ok || err != nil || res == nil {
		t.Fatalf("WaitTimeout after release = %v, %v, %v", res, err, ok)
	}
	// A completed future answers instantly regardless of d.
	if _, _, ok := f.WaitTimeout(0); !ok {
		t.Fatal("WaitTimeout(0) on a done future reported not-done")
	}
}
