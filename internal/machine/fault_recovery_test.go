package machine

import (
	"fmt"
	"testing"

	"nwcache/internal/disk"
	"nwcache/internal/fault"
	"nwcache/internal/optical"
	"nwcache/internal/param"
)

// pressureProg dirties many pages from node 0 so the swap-out daemon
// keeps the ring populated for the whole run.
func pressureProg(pages int64) Program {
	return &testProg{name: "pressure", pages: pages, fn: func(ctx *Ctx, proc int) {
		if proc != 0 {
			return
		}
		for pg := PageID(0); pg < PageID(pages); pg++ {
			ctx.Write(pg, 0, 16)
		}
	}}
}

// runFaulted executes prog on an NWCache machine with the given fault
// plan attached.
func runFaulted(t *testing.T, cfg param.Config, spec string, policy fault.Policy, prog Program) *Result {
	t.Helper()
	plan, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg, NWCache, disk.Naive)
	if err != nil {
		t.Fatal(err)
	}
	m.AttachFaults(fault.NewInjector(plan, 1, policy))
	res, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// crashSalvo builds a crash plan hitting node 0 at ten instants spread
// across a run of the given length, so at least one lands while pages
// are ring-resident regardless of timing drift between policies.
func crashSalvo(exec int64) string {
	spec := ""
	for pct := int64(5); pct < 100; pct += 10 {
		spec += fmt.Sprintf("node crash node=0 at=%d\n", exec*pct/100)
	}
	return spec
}

// TestCrashVoidsAndPoliciesDiffer is the end-to-end recovery-policy
// contrast: the same crash salvo under the aggressive policy loses every
// voided page (the frame was freed at ring insert), while the
// conservative policy re-sends each voided page from the still-held
// frame and loses nothing.
func TestCrashVoidsAndPoliciesDiffer(t *testing.T) {
	cfg := smallCfg()
	base := runProg(t, cfg, NWCache, disk.Naive, pressureProg(64))
	if base.SwapOuts == 0 {
		t.Fatal("pressure program produced no swap-outs; test is vacuous")
	}
	spec := crashSalvo(base.ExecTime)

	agg := runFaulted(t, cfg, spec, fault.Aggressive, pressureProg(64))
	if agg.FaultStats == nil {
		t.Fatal("aggressive: no fault stats collected")
	}
	if agg.FaultStats.VoidedPages == 0 {
		t.Fatal("aggressive: crash salvo voided no ring-resident pages")
	}
	if agg.FaultStats.LostPages != agg.FaultStats.VoidedPages {
		t.Fatalf("aggressive: lost %d != voided %d (every voided page should be lost)",
			agg.FaultStats.LostPages, agg.FaultStats.VoidedPages)
	}
	if agg.FaultStats.RecoveredPages != 0 {
		t.Fatalf("aggressive: recovered %d pages, want 0", agg.FaultStats.RecoveredPages)
	}

	con := runFaulted(t, cfg, spec, fault.Conservative, pressureProg(64))
	if con.FaultStats == nil {
		t.Fatal("conservative: no fault stats collected")
	}
	if con.FaultStats.VoidedPages == 0 {
		t.Fatal("conservative: crash salvo voided no ring-resident pages")
	}
	if con.FaultStats.LostPages != 0 {
		t.Fatalf("conservative: lost %d pages, want 0 (zero-loss guarantee)",
			con.FaultStats.LostPages)
	}
	if con.FaultStats.RecoveredPages != con.FaultStats.VoidedPages {
		t.Fatalf("conservative: recovered %d != voided %d (every voided page should be re-sent)",
			con.FaultStats.RecoveredPages, con.FaultStats.VoidedPages)
	}
}

// TestRingOutageFallsBackToMesh forces a whole-run ring outage and
// checks every swap-out takes the mesh path instead of hanging on the
// ring.
func TestRingOutageFallsBackToMesh(t *testing.T) {
	cfg := smallCfg()
	res := runFaulted(t, cfg, "ring outage node=* from=0 until=1000000000000\n",
		fault.Aggressive, pressureProg(64))
	if res.FaultStats.OutageFallbacks == 0 {
		t.Fatal("no outage fallbacks despite a whole-run ring outage")
	}
	if res.FaultStats.OutageFallbacks != res.SwapOuts {
		t.Fatalf("fallbacks %d != swap-outs %d (every swap-out should take the mesh path)",
			res.FaultStats.OutageFallbacks, res.SwapOuts)
	}
	if res.RingHitRate != 0 {
		t.Fatalf("ring hit rate %f during a whole-run outage, want 0", res.RingHitRate)
	}
}

// TestFaultedRunDeterminism runs the same plan+seed twice and demands
// bit-identical results.
func TestFaultedRunDeterminism(t *testing.T) {
	cfg := smallCfg()
	base := runProg(t, cfg, NWCache, disk.Naive, pressureProg(64))
	spec := crashSalvo(base.ExecTime) +
		"disk read-error rate=0.2 retries=2 backoff=500\n" +
		"ring corrupt rate=0.1\n"
	a := runFaulted(t, cfg, spec, fault.Conservative, pressureProg(64))
	b := runFaulted(t, cfg, spec, fault.Conservative, pressureProg(64))
	if a.ExecTime != b.ExecTime {
		t.Fatalf("exec time differs across identical faulted runs: %d vs %d", a.ExecTime, b.ExecTime)
	}
	if *a.FaultStats != *b.FaultStats {
		t.Fatalf("fault stats differ across identical faulted runs:\n%+v\n%+v", *a.FaultStats, *b.FaultStats)
	}
	if a.FaultSummary != b.FaultSummary {
		t.Fatalf("fault summaries differ:\n%s\n%s", a.FaultSummary, b.FaultSummary)
	}
}

// TestUnfaultedResultCarriesNoFaultBlock pins the golden-output
// contract: a machine with no injector attached reports a nil FaultStats
// and an empty FaultSummary, so rendered results are byte-identical to
// the pre-fault-injection format.
func TestUnfaultedResultCarriesNoFaultBlock(t *testing.T) {
	res := runProg(t, smallCfg(), NWCache, disk.Naive, pressureProg(16))
	if res.FaultStats != nil {
		t.Fatalf("unfaulted run collected fault stats: %+v", *res.FaultStats)
	}
	if res.FaultSummary != "" {
		t.Fatalf("unfaulted run rendered a fault summary: %q", res.FaultSummary)
	}
}

// TestConservativeResendSurvivesEntryReuse churns the ring right after
// each crash, in the same instant and before any swap-out wakes: every
// free ring entry is taken and released again. Released entries are
// reused, but a voided one is retired, so each conservative swap-out
// holding a voided copy still sees Voided and resends over the mesh.
func TestConservativeResendSurvivesEntryReuse(t *testing.T) {
	cfg := smallCfg()
	base := runProg(t, cfg, NWCache, disk.Naive, pressureProg(64))
	spec := crashSalvo(base.ExecTime)
	plan, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg, NWCache, disk.Naive)
	if err != nil {
		t.Fatal(err)
	}
	m.AttachFaults(fault.NewInjector(plan, 1, fault.Conservative))
	for _, c := range plan.Crashes {
		// Scheduled after AttachFaults' crash events, so it runs right
		// after each crash, before the swap-outs the crash woke.
		m.E.At(c.At, func() {
			var churn []*optical.Entry
			for ch := 0; ch < m.Ring.Channels(); ch++ {
				for m.Ring.Channel(ch).HasRoom() {
					churn = append(churn, m.Ring.InsertOn(ch, -1))
				}
			}
			for _, en := range churn {
				m.Ring.Release(en)
			}
		})
	}
	res, err := m.Run(pressureProg(64))
	if err != nil {
		t.Fatal(err)
	}
	fs := res.FaultStats
	if fs.VoidedPages == 0 {
		t.Fatal("crash salvo voided no ring-resident pages; test is vacuous")
	}
	if fs.LostPages != 0 || fs.RecoveredPages != fs.VoidedPages {
		t.Fatalf("recovered %d, lost %d of %d voided pages; want every voided page resent",
			fs.RecoveredPages, fs.LostPages, fs.VoidedPages)
	}
}
