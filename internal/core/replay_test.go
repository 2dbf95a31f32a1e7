package core

import (
	"reflect"
	"testing"

	"nwcache/internal/workload"
)

// requireReplayMatches records the cell's program with workload.Record,
// replays the trace on a fresh machine set up exactly as the cell
// describes, and demands a result identical to the direct run. Record
// never simulates, so this holds only because the built-in programs are
// time-oblivious: their op streams do not depend on the machine. Every
// field (timing, breakdowns, counters, fault account) must match; only
// the program name differs ("gauss.trace" vs "gauss").
func requireReplayMatches(t *testing.T, label string, cell Cell) {
	t.Helper()
	direct, err := cell.Run()
	if err != nil {
		t.Fatalf("%s direct: %v", label, err)
	}
	prog, err := NewProgram(cell.App, cell.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Record(prog, cell.Cfg)
	if err != nil {
		t.Fatalf("%s record: %v", label, err)
	}
	replayed, err := cell.run(tr)
	if err != nil {
		t.Fatalf("%s replay: %v", label, err)
	}
	if replayed.App != direct.App+".trace" {
		t.Fatalf("%s: replay named %q, want %q", label, replayed.App, direct.App+".trace")
	}
	replayed.App = direct.App
	if !reflect.DeepEqual(direct, replayed) {
		t.Fatalf("%s: replayed result diverges from direct\ndirect: %+v\nreplayed: %+v", label, direct, replayed)
	}
	if direct.String() != replayed.String() {
		t.Fatalf("%s: rendered output diverges", label)
	}
}

// TestRecordReplayMatchesDirectAllApps covers every built-in application
// across two seeds. Naive prefetching on the NWCache machine exercises
// the busiest protocol surface (faults to media, ring traffic,
// swap-outs).
func TestRecordReplayMatchesDirectAllApps(t *testing.T) {
	for _, app := range Apps() {
		for _, seed := range []int64{1, 5} {
			cfg := fastCfg()
			cfg.Seed = seed
			requireReplayMatches(t, app, Cell{App: app, Kind: NWCache, Mode: Naive, Cfg: cfg})
		}
	}
}

// TestRecordReplayMatchesDirectStandardMachine covers the standard
// machine and optimal prefetching (different protocol paths: no ring,
// mesh swap-outs, prefetched controller hits).
func TestRecordReplayMatchesDirectStandardMachine(t *testing.T) {
	requireReplayMatches(t, "gauss/standard/optimal",
		Cell{App: "gauss", Kind: Standard, Mode: Optimal, Cfg: fastCfg()})
}

// TestRecordReplayMatchesDirectFaulted replays a faulted cell under both
// recovery policies: injected faults perturb timing and control flow,
// and the replay must still be identical down to the fault account.
func TestRecordReplayMatchesDirectFaulted(t *testing.T) {
	for _, recovery := range []string{"aggressive", "conservative"} {
		cell := faultCell()
		cell.Recovery = recovery
		requireReplayMatches(t, recovery, cell)
	}
}
