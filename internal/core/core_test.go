package core

import (
	"reflect"
	"testing"

	"nwcache/internal/optical"
	"nwcache/internal/sim"
)

// fastCfg shrinks the machine and workload for quick end-to-end tests.
func fastCfg() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.1
	cfg.MemPerNode = 16 * cfg.PageSize
	return cfg
}

func TestRunKnownApp(t *testing.T) {
	res, err := Run("sor", NWCache, Naive, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.App != "sor" || res.Kind != NWCache || res.Mode != "naive" {
		t.Fatalf("result identity %q/%v/%q", res.App, res.Kind, res.Mode)
	}
	if res.ExecTime <= 0 {
		t.Fatal("no execution time")
	}
}

func TestRunUnknownAppErrors(t *testing.T) {
	if _, err := Run("nosuch", Standard, Naive, fastCfg()); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestRunInvalidConfigErrors(t *testing.T) {
	cfg := fastCfg()
	cfg.MinFreeFrames = 0
	if _, err := Run("sor", Standard, Naive, cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestAppsListsSeven(t *testing.T) {
	apps := Apps()
	if len(apps) != 7 {
		t.Fatalf("%d apps, want 7", len(apps))
	}
	for _, name := range apps {
		if _, err := NewProgram(name, fastCfg()); err != nil {
			t.Fatalf("NewProgram(%q): %v", name, err)
		}
	}
}

func TestPaperMinFree(t *testing.T) {
	cases := []struct {
		kind Kind
		mode PrefetchMode
		want int
	}{
		{Standard, Optimal, 12},
		{Standard, Naive, 4},
		{NWCache, Optimal, 2},
		{NWCache, Naive, 2},
	}
	for _, c := range cases {
		if got := PaperMinFree(c.kind, c.mode); got != c.want {
			t.Errorf("PaperMinFree(%v,%v) = %d, want %d", c.kind, c.mode, got, c.want)
		}
		cfg := ApplyPaperMinFree(DefaultConfig(), c.kind, c.mode)
		if cfg.MinFreeFrames != c.want {
			t.Errorf("ApplyPaperMinFree(%v,%v) left %d", c.kind, c.mode, cfg.MinFreeFrames)
		}
	}
}

func TestDrainRoundRobinBothSettings(t *testing.T) {
	for _, rr := range []bool{false, true} {
		cfg := fastCfg()
		cfg.DrainRoundRobin = rr
		res, err := Run("sor", NWCache, Naive, cfg)
		if err != nil {
			t.Fatalf("rr=%v: %v", rr, err)
		}
		if res.ExecTime <= 0 {
			t.Fatalf("rr=%v: empty result", rr)
		}
		m, err := NewMachine(cfg, NWCache, Naive)
		if err != nil {
			t.Fatal(err)
		}
		want := optical.MostLoaded
		if rr {
			want = optical.RoundRobin
		}
		for node, f := range m.Ifaces {
			if f != nil && f.Policy != want {
				t.Fatalf("rr=%v: interface %d drains with policy %v, want %v", rr, node, f.Policy, want)
			}
		}
	}
}

func TestNewMachineExposesSubstrates(t *testing.T) {
	m, err := NewMachine(fastCfg(), NWCache, Optimal)
	if err != nil {
		t.Fatal(err)
	}
	if m.Ring == nil {
		t.Fatal("NWCache machine without ring")
	}
	disks := 0
	for _, d := range m.Disks {
		if d != nil {
			disks++
		}
	}
	if disks != fastCfg().IONodes {
		t.Fatalf("%d disks, want %d", disks, fastCfg().IONodes)
	}
	std, err := NewMachine(fastCfg(), Standard, Optimal)
	if err != nil {
		t.Fatal(err)
	}
	if std.Ring != nil {
		t.Fatal("standard machine grew a ring")
	}
}

// TestCellProbeAttached checks the Cell→engine probe hand-off: a cell
// run with Probe set publishes the simulated clock through it, and the
// probe leaves the result unchanged.
func TestCellProbeAttached(t *testing.T) {
	c := Cell{App: "sor", Kind: NWCache, Mode: Naive, Cfg: fastCfg()}
	want, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	c.Probe = &sim.Progress{Every: 1000}
	got, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.Probe.SimNow() <= 0 {
		t.Fatal("probe never saw the simulated clock advance")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("attaching a probe changed the result")
	}
}
