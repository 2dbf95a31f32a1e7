package exp

import (
	"fmt"

	"nwcache/internal/core"
	"nwcache/internal/exp/pool"
	"nwcache/internal/pfs"
	"nwcache/internal/stats"
)

// relLevel is one escalating step of the reliability sweep.
type relLevel struct {
	name string
	spec string // fault-plan spec (internal/fault syntax)
}

// relRow is one machine/recovery-policy combination under test.
type relRow struct {
	label    string
	kind     core.Kind
	recovery string
}

// reliabilityRows returns the matrix rows: the standard machine has no
// ring to lose pages from, so only the aggressive policy is meaningful
// there; the NWCache machine runs under both recovery policies.
func reliabilityRows() []relRow {
	return []relRow{
		{"standard/aggressive", core.Standard, "aggressive"},
		{"nwcache/aggressive", core.NWCache, "aggressive"},
		{"nwcache/conservative", core.NWCache, "conservative"},
	}
}

// reliabilityLevels builds the escalating fault plans. Crash instants and
// the outage window are placed relative to a fault-free baseline
// execution time so the events land mid-run at any workload scale.
func reliabilityLevels(cfg core.Config, baseExec int64) []relLevel {
	// Swap traffic is heaviest late in a run (eviction pressure builds as
	// the working set cycles), so the I/O-node crashes form a salvo spread
	// across that region: ring-residency windows are narrow, and each row's
	// timeline shifts a little under its own fault load, so several instants
	// catch ring-resident pages far more reliably than one.
	io := pfs.New(cfg).IONodes()
	crash1 := fmt.Sprintf("node crash node=%d at=%d\n", io[0], baseExec*50/100)
	var salvo string
	for _, pct := range []int64{90, 93, 96} {
		for _, node := range io {
			salvo += fmt.Sprintf("node crash node=%d at=%d\n", node, baseExec*pct/100)
		}
	}
	outage := fmt.Sprintf("ring outage node=* from=%d until=%d\n",
		baseExec*20/100, baseExec*45/100)
	return []relLevel{
		{"none", ""},
		{"low", "disk read-error rate=0.001\n" +
			"disk write-error rate=0.001\n"},
		{"medium", "disk read-error rate=0.01\n" +
			"disk write-error rate=0.01\n" +
			"ring corrupt rate=0.01\n" + crash1 + salvo},
		{"high", "disk read-error rate=0.1\n" +
			"disk write-error rate=0.1\n" +
			"ring corrupt rate=0.05\n" + outage + crash1 + salvo},
	}
}

// ReliabilityMatrix runs one application under escalating fault plans on
// each machine/recovery-policy row and reports execution-time impact and
// the fault/recovery account. It enforces the conservative policy's
// invariant — zero lost pages at every fault level — and fails loudly if
// a run violates it.
func (s *Suite) ReliabilityMatrix(app string, mode core.PrefetchMode, faultSeed int64) (*stats.Table, error) {
	base, err := s.Get(app, core.NWCache, mode)
	if err != nil {
		return nil, err
	}
	levels := reliabilityLevels(s.cfg, base.ExecTime)
	rows := reliabilityRows()

	// Submit the whole matrix first so the pool runs it in parallel.
	futs := make([][]*pool.Future, len(rows))
	for i, row := range rows {
		futs[i] = make([]*pool.Future, len(levels))
		for j, lv := range levels {
			c := s.cell(app, row.kind, mode)
			c.FaultPlan = lv.spec
			c.FaultSeed = faultSeed
			c.Recovery = row.recovery
			f, fresh := s.sched.Submit(c)
			if fresh && s.Progress != nil {
				s.Progress(c.Label() + " / " + lv.name)
			}
			futs[i][j] = f
		}
	}

	t := &stats.Table{
		Title: fmt.Sprintf("Reliability Matrix: %s / %s (fault seed %d)", app, mode, faultSeed),
		Headers: []string{"Machine/Policy", "Level", "Exec (Mpcycles)", "Slowdown",
			"DiskErr", "Corrupt", "Fallback", "Voided", "Lost", "Recovered"},
	}
	for i, row := range rows {
		var rowBase int64
		for j, lv := range levels {
			res, err := futs[i][j].Wait()
			if err != nil {
				return nil, fmt.Errorf("%s @ %s: %w", row.label, lv.name, err)
			}
			if j == 0 {
				rowBase = res.ExecTime
			}
			var diskErr, corrupt, fallback, voided, lost, recovered uint64
			if fs := res.FaultStats; fs != nil {
				diskErr = fs.DiskReadErrors + fs.DiskWriteErrors
				corrupt = fs.RingCorruptions
				fallback = fs.OutageFallbacks
				voided = fs.VoidedPages
				lost = fs.LostPages
				recovered = fs.RecoveredPages
			}
			if row.recovery == "conservative" && lost > 0 {
				return nil, fmt.Errorf(
					"reliability: %s lost %d page(s) at level %s — the conservative policy guarantees zero loss",
					row.label, lost, lv.name)
			}
			t.AddRow(row.label, lv.name,
				stats.FmtF(float64(res.ExecTime)/1e6, 2),
				stats.FmtF(float64(res.ExecTime)/float64(rowBase), 3),
				fmt.Sprintf("%d", diskErr),
				fmt.Sprintf("%d", corrupt),
				fmt.Sprintf("%d", fallback),
				fmt.Sprintf("%d", voided),
				fmt.Sprintf("%d", lost),
				fmt.Sprintf("%d", recovered))
		}
	}
	return t, nil
}
