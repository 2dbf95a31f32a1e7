// Benchmarks regenerating the paper's evaluation artifacts: one benchmark
// per table (3-8) and figure (3-4) of §5, plus microbenchmarks of the
// simulation substrates. Each table benchmark runs the full application
// matrix its table derives from and reports the table's headline metric
// via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// both regenerates the numbers and tracks simulator performance. Set
// NWCACHE_BENCH_SCALE to shrink the workloads (default 1.0 = the paper's
// Table 2 inputs).
package nwcache_test

import (
	"os"
	"strconv"
	"testing"

	"nwcache"
	"nwcache/internal/disk"
	"nwcache/internal/machine"
	"nwcache/internal/mesh"
	"nwcache/internal/optical"
	"nwcache/internal/param"
	"nwcache/internal/sim"
	"nwcache/internal/stats"
)

// benchScale reads the workload scale for benchmarks.
func benchScale() float64 {
	if s := os.Getenv("NWCACHE_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 1.0
}

// benchCfg returns the benchmark configuration.
func benchCfg() nwcache.Config {
	cfg := nwcache.DefaultConfig()
	cfg.Scale = benchScale()
	return cfg
}

// runCell executes one (app, kind, mode) cell with the paper's min-free
// setting.
func runCell(b *testing.B, app string, kind nwcache.Kind, mode nwcache.PrefetchMode) *nwcache.Result {
	b.Helper()
	cfg := nwcache.ApplyPaperMinFree(benchCfg(), kind, mode)
	res, err := nwcache.Run(app, kind, mode, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// swapBench regenerates Table 3 or 4: mean swap-out-time improvement
// factor (standard/NWCache) across the suite.
func swapBench(b *testing.B, mode nwcache.PrefetchMode) {
	for i := 0; i < b.N; i++ {
		var ratio stats.Mean
		for _, app := range nwcache.Apps() {
			std := runCell(b, app, nwcache.Standard, mode)
			nwc := runCell(b, app, nwcache.NWCache, mode)
			if nwc.AvgSwapTime > 0 {
				ratio.Add(std.AvgSwapTime / nwc.AvgSwapTime)
			}
		}
		b.ReportMetric(ratio.Value(), "swap-speedup-x")
	}
}

// BenchmarkTable3SwapOutOptimal regenerates Table 3 (average swap-out
// times under optimal prefetching).
func BenchmarkTable3SwapOutOptimal(b *testing.B) { swapBench(b, nwcache.Optimal) }

// BenchmarkTable4SwapOutNaive regenerates Table 4 (average swap-out times
// under naive prefetching).
func BenchmarkTable4SwapOutNaive(b *testing.B) { swapBench(b, nwcache.Naive) }

// combiningBench regenerates Table 5 or 6: mean write-combining factors.
func combiningBench(b *testing.B, mode nwcache.PrefetchMode) {
	for i := 0; i < b.N; i++ {
		var std, nwc stats.Mean
		for _, app := range nwcache.Apps() {
			std.Add(runCell(b, app, nwcache.Standard, mode).Combining)
			nwc.Add(runCell(b, app, nwcache.NWCache, mode).Combining)
		}
		b.ReportMetric(std.Value(), "std-combining")
		b.ReportMetric(nwc.Value(), "nwc-combining")
	}
}

// BenchmarkTable5CombiningOptimal regenerates Table 5.
func BenchmarkTable5CombiningOptimal(b *testing.B) { combiningBench(b, nwcache.Optimal) }

// BenchmarkTable6CombiningNaive regenerates Table 6.
func BenchmarkTable6CombiningNaive(b *testing.B) { combiningBench(b, nwcache.Naive) }

// BenchmarkTable7HitRates regenerates Table 7: NWCache victim hit rates
// under both prefetching techniques.
func BenchmarkTable7HitRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var naive, optimal stats.Mean
		for _, app := range nwcache.Apps() {
			naive.Add(runCell(b, app, nwcache.NWCache, nwcache.Naive).RingHitRate)
			optimal.Add(runCell(b, app, nwcache.NWCache, nwcache.Optimal).RingHitRate)
		}
		b.ReportMetric(naive.Value()*100, "naive-hit-%")
		b.ReportMetric(optimal.Value()*100, "optimal-hit-%")
	}
}

// BenchmarkTable8Contention regenerates Table 8: page-fault latency for
// disk-cache hits under naive prefetching.
func BenchmarkTable8Contention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var std, nwc stats.Mean
		for _, app := range nwcache.Apps() {
			if v := runCell(b, app, nwcache.Standard, nwcache.Naive).FaultHitLat; v > 0 {
				std.Add(v)
			}
			if v := runCell(b, app, nwcache.NWCache, nwcache.Naive).FaultHitLat; v > 0 {
				nwc.Add(v)
			}
		}
		b.ReportMetric(std.Value()/1e3, "std-hitlat-Kpc")
		b.ReportMetric(nwc.Value()/1e3, "nwc-hitlat-Kpc")
	}
}

// figureBench regenerates Figure 3 or 4: the mean NWCache execution-time
// improvement and the standard machine's mean NoFree fraction.
func figureBench(b *testing.B, mode nwcache.PrefetchMode) {
	for i := 0; i < b.N; i++ {
		var imp, noFree stats.Mean
		for _, app := range nwcache.Apps() {
			std := runCell(b, app, nwcache.Standard, mode)
			nwc := runCell(b, app, nwcache.NWCache, mode)
			imp.Add(1 - float64(nwc.ExecTime)/float64(std.ExecTime))
			noFree.Add(std.Breakdown.Fractions()[stats.NoFree])
		}
		b.ReportMetric(imp.Value()*100, "improvement-%")
		b.ReportMetric(noFree.Value()*100, "std-nofree-%")
	}
}

// BenchmarkFigure3BreakdownOptimal regenerates Figure 3.
func BenchmarkFigure3BreakdownOptimal(b *testing.B) { figureBench(b, nwcache.Optimal) }

// BenchmarkFigure4BreakdownNaive regenerates Figure 4.
func BenchmarkFigure4BreakdownNaive(b *testing.B) { figureBench(b, nwcache.Naive) }

// BenchmarkSingleRunGauss measures simulator throughput on the suite's
// heaviest application (standard machine, optimal prefetching).
func BenchmarkSingleRunGauss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runCell(b, "gauss", nwcache.Standard, nwcache.Optimal)
		b.ReportMetric(float64(res.ExecTime), "sim-pcycles")
	}
}

// BenchmarkSingleRunFFT measures simulator throughput on a
// communication-heavy application (the transposes touch every partition),
// complementing the swap-heavy gauss run above.
func BenchmarkSingleRunFFT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runCell(b, "fft", nwcache.NWCache, nwcache.Optimal)
		b.ReportMetric(float64(res.ExecTime), "sim-pcycles")
	}
}

// --- substrate microbenchmarks ---

// BenchmarkEngineEventThroughput measures raw event dispatch.
func BenchmarkEngineEventThroughput(b *testing.B) {
	e := sim.New()
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		if count < b.N {
			e.After(1, reschedule)
		}
	}
	b.ResetTimer()
	e.After(1, reschedule)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcSwitch measures coroutine transfer cost.
func BenchmarkProcSwitch(b *testing.B) {
	e := sim.New()
	n := b.N
	e.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcHandoff measures a hand-off between two procs: they sleep
// in alternation, so every wake resumes the proc that is not driving and
// costs a switch (one per op, reported as switches/op).
func BenchmarkProcHandoff(b *testing.B) {
	e := sim.New()
	n := b.N
	e.Spawn("ping", func(p *sim.Proc) {
		for i := 0; i < (n+1)/2; i++ {
			p.Sleep(2)
		}
	})
	e.Spawn("pong", func(p *sim.Proc) {
		p.Sleep(1)
		for i := 0; i < n/2; i++ {
			p.Sleep(2)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(e.Switches())/float64(n), "switches/op")
}

// BenchmarkCallbackHandoff is BenchmarkProcHandoff for continuations:
// two continuations alternate through a Cond (each signals the other and
// waits), so every hand-off is one callback dispatch and no switch.
func BenchmarkCallbackHandoff(b *testing.B) {
	e := sim.New()
	c := sim.NewCond(e)
	left := b.N
	var ping, pong func()
	hand := func(self func()) {
		if left == 0 {
			return
		}
		left--
		c.Signal()
		c.WaitThen(self)
	}
	ping = func() { hand(ping) }
	pong = func() { hand(pong) }
	c.WaitThen(pong)
	e.At(0, ping)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(e.Dispatched()-1)/float64(b.N), "callbacks/op")
}

// touchProg is a Program whose thread 0 runs fn; the other threads exit.
type touchProg struct{ fn func(ctx *machine.Ctx) }

func (touchProg) Name() string     { return "touch" }
func (touchProg) DataPages() int64 { return 64 }
func (t touchProg) Run(ctx *machine.Ctx, proc int) {
	if proc == 0 {
		t.fn(ctx)
	}
}

// BenchmarkCtxTouch measures one CPU's Touch path on resident pages: the
// run-ahead queue, the callback chain, the TLB and the coherent cache.
// Touches alternate between a block that always hits and 192 blocks that
// cycle through the 128-block cache and always miss to local memory.
func BenchmarkCtxTouch(b *testing.B) {
	m, err := machine.New(param.Default(), machine.NWCache, disk.Optimal)
	if err != nil {
		b.Fatal(err)
	}
	const cold = 48 // pages: within the TLB and the free frames
	prog := touchProg{fn: func(ctx *machine.Ctx) {
		for pg := machine.PageID(0); pg <= cold; pg++ {
			ctx.Read(pg, 0, 1)
		}
		ctx.Now() // fault the pages in before timing
		cc := m.Nodes[0].CC
		misses0 := cc.Misses
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i&1 == 0 {
				ctx.Read(0, 0, 1)
			} else {
				k := (i >> 1) % (cold * 4)
				ctx.Read(machine.PageID(1+k/4), k%4, 1)
			}
		}
		ctx.Now()
		b.StopTimer()
		b.ReportMetric(float64(cc.Misses-misses0)/float64(b.N), "cc-misses/op")
	}}
	if _, err := m.Run(prog); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMeshTransit measures network reservation cost.
func BenchmarkMeshTransit(b *testing.B) {
	e := sim.New()
	cfg := param.Default()
	m := mesh.New(e, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transit(sim.Time(i), i%8, (i+3)%8, cfg.PageSize)
	}
}

// BenchmarkRingInsertRelease measures optical ring bookkeeping.
func BenchmarkRingInsertRelease(b *testing.B) {
	e := sim.New()
	r := optical.New(e, param.Default())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en := r.Insert(i%8, optical.PageID(i))
		r.Release(en)
	}
}
