// Ablation benchmarks for the design choices and extensions listed in
// DESIGN.md's experiment index (A1-A4, E1-E3). Each runs the relevant
// configuration pair/sweep once per iteration and reports the headline
// effect via b.ReportMetric.
package nwcache_test

import (
	"testing"

	"nwcache"
	"nwcache/internal/stats"
)

// ablationApps is the subset of the suite the ablation benches run on —
// the three apps with the most distinct ring behavior.
var ablationApps = []string{"gauss", "radix", "sor"}

// BenchmarkAblationRingCapacity (A1): per-channel optical storage 16 KB vs
// the paper's 64 KB. Reports the mean slowdown of the smaller ring.
func BenchmarkAblationRingCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var ratio stats.Mean
		for _, app := range ablationApps {
			base := nwcache.ApplyPaperMinFree(benchCfg(), nwcache.NWCache, nwcache.Optimal)
			small := base
			small.RingChanBytes = 16 << 10
			rBase, err := nwcache.Run(app, nwcache.NWCache, nwcache.Optimal, base)
			if err != nil {
				b.Fatal(err)
			}
			rSmall, err := nwcache.Run(app, nwcache.NWCache, nwcache.Optimal, small)
			if err != nil {
				b.Fatal(err)
			}
			ratio.Add(float64(rSmall.ExecTime) / float64(rBase.ExecTime))
		}
		b.ReportMetric(ratio.Value(), "16KB-vs-64KB-slowdown")
	}
}

// BenchmarkAblationDrainPolicy (A2): most-loaded-channel vs round-robin
// drain. Reports round-robin's mean slowdown factor.
func BenchmarkAblationDrainPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var ratio stats.Mean
		for _, app := range ablationApps {
			cfg := nwcache.ApplyPaperMinFree(benchCfg(), nwcache.NWCache, nwcache.Optimal)
			ml, err := nwcache.Run(app, nwcache.NWCache, nwcache.Optimal, cfg)
			if err != nil {
				b.Fatal(err)
			}
			cfg.DrainRoundRobin = true
			rr, err := nwcache.Run(app, nwcache.NWCache, nwcache.Optimal, cfg)
			if err != nil {
				b.Fatal(err)
			}
			ratio.Add(float64(rr.ExecTime) / float64(ml.ExecTime))
		}
		b.ReportMetric(ratio.Value(), "roundrobin-vs-mostloaded")
	}
}

// BenchmarkAblationSwapDepth (A3): one vs four outstanding swap-outs per
// node on the standard machine.
func BenchmarkAblationSwapDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var ratio stats.Mean
		for _, app := range ablationApps {
			base := nwcache.ApplyPaperMinFree(benchCfg(), nwcache.Standard, nwcache.Optimal)
			shallow := base
			shallow.SwapQueueDepth = 1
			r4, err := nwcache.Run(app, nwcache.Standard, nwcache.Optimal, base)
			if err != nil {
				b.Fatal(err)
			}
			r1, err := nwcache.Run(app, nwcache.Standard, nwcache.Optimal, shallow)
			if err != nil {
				b.Fatal(err)
			}
			ratio.Add(float64(r1.ExecTime) / float64(r4.ExecTime))
		}
		b.ReportMetric(ratio.Value(), "depth1-vs-depth4")
	}
}

// BenchmarkAblationArmScheduling (A4): FCFS vs read-priority disk
// mechanism on the NWCache machine under naive prefetching (where the
// drain/re-fault equilibrium is most sensitive to it).
func BenchmarkAblationArmScheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var ratio stats.Mean
		for _, app := range ablationApps {
			base := nwcache.ApplyPaperMinFree(benchCfg(), nwcache.NWCache, nwcache.Naive)
			prio := base
			prio.DiskReadPriority = true
			fcfs, err := nwcache.Run(app, nwcache.NWCache, nwcache.Naive, base)
			if err != nil {
				b.Fatal(err)
			}
			rp, err := nwcache.Run(app, nwcache.NWCache, nwcache.Naive, prio)
			if err != nil {
				b.Fatal(err)
			}
			ratio.Add(float64(rp.ExecTime) / float64(fcfs.ExecTime))
		}
		b.ReportMetric(ratio.Value(), "readprio-vs-fcfs")
	}
}

// BenchmarkExtensionStreamedPrefetch (E1): the Streamed mode must land
// between the naive and optimal extremes; reports its normalized position
// (0 = optimal, 1 = naive).
func BenchmarkExtensionStreamedPrefetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var pos stats.Mean
		for _, app := range ablationApps {
			exec := map[nwcache.PrefetchMode]float64{}
			for _, mode := range []nwcache.PrefetchMode{nwcache.Naive, nwcache.Streamed, nwcache.Optimal} {
				cfg := nwcache.ApplyPaperMinFree(benchCfg(), nwcache.NWCache, mode)
				r, err := nwcache.Run(app, nwcache.NWCache, mode, cfg)
				if err != nil {
					b.Fatal(err)
				}
				exec[mode] = float64(r.ExecTime)
			}
			span := exec[nwcache.Naive] - exec[nwcache.Optimal]
			if span > 0 {
				pos.Add((exec[nwcache.Streamed] - exec[nwcache.Optimal]) / span)
			}
		}
		b.ReportMetric(pos.Value(), "streamed-position-0opt-1naive")
	}
}

// BenchmarkExtensionDCDBaseline (E2): Standard+DCD speedup over Standard.
func BenchmarkExtensionDCDBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var speedup stats.Mean
		for _, app := range ablationApps {
			base := nwcache.ApplyPaperMinFree(benchCfg(), nwcache.Standard, nwcache.Optimal)
			dcd := base
			dcd.DCD = true
			std, err := nwcache.Run(app, nwcache.Standard, nwcache.Optimal, base)
			if err != nil {
				b.Fatal(err)
			}
			withDCD, err := nwcache.Run(app, nwcache.Standard, nwcache.Optimal, dcd)
			if err != nil {
				b.Fatal(err)
			}
			speedup.Add(float64(std.ExecTime) / float64(withDCD.ExecTime))
		}
		b.ReportMetric(speedup.Value(), "dcd-speedup-x")
	}
}

// BenchmarkExtensionChannelScaling (E3): 2x channels per node (OTDM).
func BenchmarkExtensionChannelScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var speedup stats.Mean
		for _, app := range ablationApps {
			base := nwcache.ApplyPaperMinFree(benchCfg(), nwcache.NWCache, nwcache.Optimal)
			wide := base
			wide.RingChannels = base.RingChannels * 2
			r8, err := nwcache.Run(app, nwcache.NWCache, nwcache.Optimal, base)
			if err != nil {
				b.Fatal(err)
			}
			r16, err := nwcache.Run(app, nwcache.NWCache, nwcache.Optimal, wide)
			if err != nil {
				b.Fatal(err)
			}
			speedup.Add(float64(r8.ExecTime) / float64(r16.ExecTime))
		}
		b.ReportMetric(speedup.Value(), "2x-channels-speedup-x")
	}
}
