package workload

import (
	"testing"
	"testing/quick"

	"nwcache/internal/disk"
	"nwcache/internal/machine"
	"nwcache/internal/param"
)

// testCfg is a small fast machine for workload integration tests.
func testCfg() param.Config {
	cfg := param.Default()
	cfg.Nodes = 2
	cfg.IONodes = 1
	cfg.MeshW = 2
	cfg.MeshH = 1
	cfg.RingChannels = 2
	cfg.MemPerNode = 16 * cfg.PageSize
	cfg.MinFreeFrames = 2
	cfg.Scale = 0.1
	return cfg
}

func runApp(t *testing.T, name string, kind machine.Kind, mode disk.PrefetchMode) *machine.Result {
	t.Helper()
	cfg := testCfg()
	prog, ok := Registry(cfg.Scale, cfg.Seed)[name]
	if !ok {
		t.Fatalf("unknown app %q", name)
	}
	m, err := machine.New(cfg, kind, mode)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFootprintsMatchTable2(t *testing.T) {
	// Paper Table 2 footprints in MB at scale 1.0.
	want := map[string]float64{
		"em3d":  2.5,
		"fft":   3.1,
		"gauss": 2.3,
		"lu":    2.7,
		"mg":    2.4,
		"radix": 2.6,
		"sor":   2.6,
	}
	reg := Registry(1.0, 1)
	for name, mb := range want {
		pages := reg[name].DataPages()
		gotMB := float64(pages) * PageSize / (1024 * 1024)
		ratio := gotMB / mb
		if ratio < 0.7 || ratio > 1.3 {
			t.Errorf("%s: footprint %.2f MB, paper %.2f MB (ratio %.2f)", name, gotMB, mb, ratio)
		}
	}
}

func TestRegistryCompleteAndNamed(t *testing.T) {
	reg := Registry(1.0, 1)
	if len(reg) != 7 {
		t.Fatalf("registry has %d apps, want 7", len(reg))
	}
	for _, name := range Names() {
		prog, ok := reg[name]
		if !ok {
			t.Fatalf("app %q missing", name)
		}
		if prog.Name() != name {
			t.Fatalf("app %q reports name %q", name, prog.Name())
		}
	}
}

func TestAllAppsRunOnBothMachines(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, kind := range []machine.Kind{machine.Standard, machine.NWCache} {
				res := runApp(t, name, kind, disk.Naive)
				if res.ExecTime <= 0 {
					t.Fatalf("%s on %v: no execution time", name, kind)
				}
				if res.Faults == 0 {
					t.Fatalf("%s on %v: no page faults despite out-of-core footprint", name, kind)
				}
			}
		})
	}
}

func TestAppsDeterministic(t *testing.T) {
	for _, name := range []string{"sor", "radix", "em3d"} { // incl. the randomized ones
		a := runApp(t, name, machine.NWCache, disk.Naive)
		b := runApp(t, name, machine.NWCache, disk.Naive)
		if a.ExecTime != b.ExecTime || a.Faults != b.Faults || a.SwapOuts != b.SwapOuts {
			t.Fatalf("%s nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", name,
				a.ExecTime, a.Faults, a.SwapOuts, b.ExecTime, b.Faults, b.SwapOuts)
		}
	}
}

func TestDirtyAppsSwapOut(t *testing.T) {
	// Every app writes, so under memory pressure swap-outs must occur.
	for _, name := range Names() {
		res := runApp(t, name, machine.Standard, disk.Naive)
		if res.SwapOuts == 0 {
			t.Errorf("%s: no swap-outs despite oversubscribed memory", name)
		}
	}
}

func TestScaleShrinksFootprint(t *testing.T) {
	big := Registry(1.0, 1)
	small := Registry(0.1, 1)
	for _, name := range Names() {
		if small[name].DataPages() >= big[name].DataPages() {
			t.Errorf("%s: scale 0.1 footprint %d >= scale 1.0 footprint %d",
				name, small[name].DataPages(), big[name].DataPages())
		}
	}
}

func TestSpaceAllocSequentialNonOverlapping(t *testing.T) {
	var sp Space
	a := sp.Alloc("a", 3*PageSize+1)
	b := sp.Alloc("b", 10)
	if a.Base != 0 || a.Pages() != 4 {
		t.Fatalf("a base %d pages %d", a.Base, a.Pages())
	}
	if b.Base != 4 {
		t.Fatalf("b base %d, want 4", b.Base)
	}
	if sp.Pages() != 5 {
		t.Fatalf("total pages %d", sp.Pages())
	}
}

func TestTouchRangeOutOfBoundsPanics(t *testing.T) {
	cfg := testCfg()
	m, err := machine.New(cfg, machine.Standard, disk.Naive)
	if err != nil {
		t.Fatal(err)
	}
	var sp Space
	a := sp.Alloc("a", PageSize)
	prog := &probeProg{fn: func(ctx *machine.Ctx, proc int) {
		if proc != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic for out-of-bounds touch")
			}
		}()
		Read(ctx, a, 0, PageSize+1)
	}}
	// The panic unwinds through the proc; the machine run then reports
	// normal completion for the remaining procs.
	func() {
		defer func() { recover() }() // swallow the engine-level repanic if any
		m.Run(prog)
	}()
}

// probeProg adapts a closure into a Program for framework tests.
type probeProg struct {
	fn func(ctx *machine.Ctx, proc int)
}

func (p *probeProg) Name() string                   { return "probe" }
func (p *probeProg) DataPages() int64               { return 1 }
func (p *probeProg) Run(ctx *machine.Ctx, proc int) { p.fn(ctx, proc) }

func TestBlockRangeProperty(t *testing.T) {
	// Property: blocks tile [0, n) without gaps or overlaps.
	f := func(nRaw uint16, partsRaw uint8) bool {
		n := int(nRaw%1000) + 1
		parts := int(partsRaw%16) + 1
		prev := 0
		for p := 0; p < parts; p++ {
			lo, hi := blockRange(n, parts, p)
			if lo != prev || hi < lo {
				return false
			}
			prev = hi
		}
		return prev == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNWCacheNotSlowerAcrossApps(t *testing.T) {
	// The headline claim at small scale: the NWCache machine should not be
	// meaningfully slower than the standard machine on any app.
	for _, name := range Names() {
		std := runApp(t, name, machine.Standard, disk.Optimal)
		nwc := runApp(t, name, machine.NWCache, disk.Optimal)
		if float64(nwc.ExecTime) > 1.15*float64(std.ExecTime) {
			t.Errorf("%s: NWCache %d pcycles vs standard %d (+%.0f%%)",
				name, nwc.ExecTime, std.ExecTime,
				100*(float64(nwc.ExecTime)/float64(std.ExecTime)-1))
		}
	}
}
