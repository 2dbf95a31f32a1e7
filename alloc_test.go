// Allocation-budget guards for the paper-scale hot path: the simulation
// core pools events, processes, swap jobs, and control messages, so one
// full gauss run stays within a few thousand allocations (setup plus
// pool warm-up). A regression past the budget means a pooled path
// started allocating per event again.
package nwcache_test

import (
	"testing"

	"nwcache"
)

// gaussAllocBudget bounds allocations of one paper-scale gauss run. The
// Standard machine measures ~4.6k allocs/run (machine construction
// dominates), the NWCache machine ~45.5k (one optical.Entry per ring
// insert); 50k still catches any per-event or per-fault allocation (gauss
// issues ~270k events and ~41k faults). The cases cover each pooled
// chain: the NWCache swap-outs and ring faults, the Standard machine's
// disk write-back, naive prefetching's prefetch fills, and the DCD log's
// destage.
const gaussAllocBudget = 50_000

func TestGaussRunAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run in -short mode")
	}
	cases := []struct {
		name string
		kind nwcache.Kind
		mode nwcache.PrefetchMode
		dcd  bool
	}{
		{"nwcache/optimal", nwcache.NWCache, nwcache.Optimal, false},
		{"standard/optimal", nwcache.Standard, nwcache.Optimal, false},
		{"nwcache/naive", nwcache.NWCache, nwcache.Naive, false},
		{"standard/naive/dcd", nwcache.Standard, nwcache.Naive, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := nwcache.DefaultConfig() // scale 1.0: the paper's input
			cfg = nwcache.ApplyPaperMinFree(cfg, tc.kind, tc.mode)
			cfg.DCD = tc.dcd
			run := func() {
				if _, err := nwcache.Run("gauss", tc.kind, tc.mode, cfg); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(1, run)
			t.Logf("%.0f allocs/run", avg)
			if avg > gaussAllocBudget {
				t.Fatalf("gauss run allocates %.0f, budget %d", avg, gaussAllocBudget)
			}
		})
	}
}
