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
// thread never sleeps to pay for them.
func switchCfg() param.Config {
	cfg := core.DefaultConfig()
	cfg.Scale = 0.1
	cfg.MemPerNode = 6 * cfg.PageSize
	cfg.MinFreeFrames = 2
	cfg.InterruptLat, cfg.TLBShootLat = 0, 0
	return cfg
}

// runAhead is the machine's run-ahead bound: a thread runs its queued
// operations once it holds this many.
const runAhead = 64

// syncPoints replays app's operations through a model of each thread's
// run-ahead queue. It returns the barrier waits the threads take (every
// arrival but the last of each barrier episode waits once) and the drain
// points: each place a thread runs its queue and may block once — a full
// queue, a Barrier or LockAcquire, and the program's end with operations
// still queued. A recording Ctx refuses Now and Machine, the only other
// drain points, so the recorded stream shows every one.
func syncPoints(t *testing.T, app string, cfg param.Config) (waits, drains uint64) {
	prog, err := core.NewProgram(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var arrivals uint64
	for proc := 0; proc < cfg.Nodes; proc++ {
		queued := 0
		prog.Run(machine.NewRecordingCtx(proc, cfg.Nodes, cfg.Seed, func(ev machine.OpEvent) {
			queued++
			if ev.Kind == machine.OpBarrier {
				arrivals++
			}
			if queued == runAhead || ev.Kind == machine.OpBarrier || ev.Kind == machine.OpLockAcquire {
				drains++
				queued = 0
			}
		}), proc)
		if queued > 0 {
			drains++
		}
	}
	return arrivals - arrivals/uint64(cfg.Nodes), drains
}

// The fault path and every daemon (disk write-back, prefetch fills, DCD
// destage, NWCache drain, write-buffer drain) run as engine callbacks,
// and so does every wait of a CPU thread, a barrier wait included: only
// the CPU threads are coroutines, and a thread is resumed only to start
// or by the callback of its CPU's chain that drains its run-ahead
// queue. So a thread blocks at most once per drain point of its
// program, however many faults its queue takes, and at least once per
// barrier wait.
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
	waits, points := syncPoints(t, app, cfg)
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
	starts, resumes := uint64(cfg.Nodes), m.ThreadResumes()
	t.Logf("%d faults (%d ring hits), %d swap-outs; %d thread resumes, %d barrier waits, %d drain points",
		res.Faults, res.RingHits, res.SwapOuts, resumes, waits, points)
	if res.SwapOuts == 0 || res.Faults <= res.SwapOuts/2 {
		t.Fatalf("no memory pressure: %d faults, %d swap-outs", res.Faults, res.SwapOuts)
	}
	if kind == machine.NWCache && res.RingHits == 0 {
		t.Fatal("no ring hits: the ring fetch went unexercised")
	}
	if waits == 0 {
		t.Fatal("no barrier wait: the barrier's chain step went unexercised")
	}
	if blocks := resumes - starts; blocks < waits || blocks > points {
		t.Errorf("threads blocked %d times, want between %d barrier waits and %d drain points",
			blocks, waits, points)
	}
}
