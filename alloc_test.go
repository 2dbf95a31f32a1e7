// Allocation-budget guards for the paper-scale hot path: the simulation
// core pools events, swap jobs, control messages and ring entries, and
// presizes the page table and the directory, so one full gauss run stays
// within a couple of thousand allocations (setup plus pool warm-up). A
// regression past a budget means a pooled path started allocating per
// event, per fault or per swap-out again.
package nwcache_test

import (
	"testing"

	"nwcache"
)

// TestGaussRunAllocBudget bounds the allocations of one paper-scale gauss
// run, per case, about 20% above the measured count. Machine construction
// dominates, and the NWCache machine allocates about as much as the
// Standard one: its ring entries are recycled, so only the ~16 live per
// channel are ever built, not one per insert (~41k inserts). The
// budgets still catch any per-event or per-fault allocation (gauss issues
// ~270k events and ~41k faults). The cases cover each pooled chain: the
// NWCache swap-outs and ring faults, the Standard machine's disk
// write-back, naive prefetching's prefetch fills, and the DCD log's
// destage, whose index and queue grow by doubling, not per block.
func TestGaussRunAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run in -short mode")
	}
	cases := []struct {
		name   string
		kind   nwcache.Kind
		mode   nwcache.PrefetchMode
		dcd    bool
		budget float64 // allocs/run; measured ~1.6k, ~1.6k, ~1.7k, ~2.1k
	}{
		{"nwcache/optimal", nwcache.NWCache, nwcache.Optimal, false, 2_000},
		{"standard/optimal", nwcache.Standard, nwcache.Optimal, false, 2_000},
		{"nwcache/naive", nwcache.NWCache, nwcache.Naive, false, 2_000},
		{"standard/naive/dcd", nwcache.Standard, nwcache.Naive, true, 2_500},
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
			if avg > tc.budget {
				t.Fatalf("gauss run allocates %.0f, budget %.0f", avg, tc.budget)
			}
		})
	}
}
