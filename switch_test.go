package nwcache_test

import (
	"fmt"
	"testing"

	"nwcache/internal/core"
	"nwcache/internal/disk"
	"nwcache/internal/machine"
	"nwcache/internal/param"
)

// switchCfg is a small, memory-pressured configuration: six frames per
// node make gauss and fft fault, swap out and (on the NWCache machine)
// hit the ring at scale 0.1. TLB-shootdown interrupts cost nothing, so a
// thread never sleeps to pay for them and every thread resume is
// accounted for exactly below.
func switchCfg() param.Config {
	cfg := core.DefaultConfig()
	cfg.Scale = 0.1
	cfg.MemPerNode = 6 * cfg.PageSize
	cfg.MinFreeFrames = 2
	cfg.InterruptLat, cfg.TLBShootLat = 0, 0
	return cfg
}

// barrierWaits counts the barrier waits app's threads take: every
// arrival but the last of each barrier episode blocks once.
func barrierWaits(t *testing.T, app string, cfg param.Config) uint64 {
	prog, err := core.NewProgram(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var arrivals uint64
	for proc := 0; proc < cfg.Nodes; proc++ {
		prog.Run(machine.NewRecordingCtx(proc, cfg.Nodes, cfg.Seed, func(ev machine.OpEvent) {
			switch ev.Kind {
			case machine.OpBarrier:
				arrivals++
			case machine.OpLockAcquire, machine.OpLockRelease, machine.OpFileRead, machine.OpFileWrite:
				t.Fatalf("%s: op %v is outside this accounting", app, ev.Kind)
			}
		}), proc)
	}
	return arrivals - arrivals/uint64(cfg.Nodes)
}

// The fault path and every daemon (disk write-back, prefetch fills, DCD
// destage, NWCache drain, write-buffer drain) run as engine callbacks:
// only the CPU threads are coroutines, and a thread is resumed only to
// start, at the end of a barrier wait, or by the callback that drains its
// run-ahead queue (a Resume). So the thread resumes are exactly those.
func TestFaultPathTakesNoSwitch(t *testing.T) {
	type variant struct {
		name string
		edit func(*param.Config)
	}
	variants := []variant{{"", nil}}
	for _, app := range []string{"gauss", "fft"} {
		for _, kind := range []machine.Kind{machine.Standard, machine.NWCache} {
			for _, mode := range []disk.PrefetchMode{disk.Naive, disk.Optimal, disk.Streamed} {
				vs := variants
				if app == "gauss" && mode == disk.Naive {
					vs = append(vs,
						variant{"dcd", func(c *param.Config) { c.DCD = true }},
						variant{"read-priority", func(c *param.Config) { c.DiskReadPriority = true }},
						variant{"write-buffer", func(c *param.Config) { c.WriteBufferDepth = 4 }},
					)
				}
				for _, v := range vs {
					name := fmt.Sprintf("%s/%v/%v", app, kind, mode)
					if v.name != "" {
						name += "/" + v.name
					}
					t.Run(name, func(t *testing.T) {
						cfg := switchCfg()
						if v.edit != nil {
							v.edit(&cfg)
						}
						checkSwitches(t, app, kind, mode, cfg)
					})
				}
			}
		}
	}
}

func checkSwitches(t *testing.T, app string, kind machine.Kind, mode disk.PrefetchMode, cfg param.Config) {
	t.Helper()
	waits := barrierWaits(t, app, cfg)
	m, err := core.NewMachine(cfg, kind, mode)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := core.NewProgram(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d faults (%d ring hits), %d swap-outs; %d thread resumes, %d of them Resumes",
		res.Faults, res.RingHits, res.SwapOuts, m.ThreadResumes(), m.E.Resumes())
	if res.SwapOuts == 0 || res.Faults <= res.SwapOuts/2 {
		t.Fatalf("no memory pressure: %d faults, %d swap-outs", res.Faults, res.SwapOuts)
	}
	if kind == machine.NWCache && res.RingHits == 0 {
		t.Fatal("no ring hits: the ring fetch went unexercised")
	}
	starts, drains := uint64(cfg.Nodes), m.E.Resumes()
	if got, want := m.ThreadResumes(), starts+waits+drains; got != want {
		t.Errorf("thread resumes = %d, want %d (%d starts + %d barrier waits + %d queue drains ending in a callback)",
			got, want, starts, waits, drains)
	}
}
