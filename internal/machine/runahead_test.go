package machine

import (
	"fmt"
	"testing"
	"unsafe"

	"nwcache/internal/disk"
	"nwcache/internal/param"
	"nwcache/internal/stats"
)

// slowPathSummary renders what the slow-path pins assert: execution
// time, the breakdown, coherent-cache hits/misses/upgrades, write-buffer
// full waits and faults, summed over the nodes.
func slowPathSummary(m *Machine, r *Result) string {
	var hits, misses, upgrades, fullWaits uint64
	for _, n := range m.Nodes {
		hits += n.CC.Hits
		misses += n.CC.Misses
		upgrades += n.CC.Upgrades
		if n.WB != nil {
			fullWaits += n.WB.FullWaits
		}
	}
	return fmt.Sprintf("exec=%d breakdown=%v cc=%d/%d/%d fullwaits=%d faults=%d",
		r.ExecTime, r.Breakdown.T, hits, misses, upgrades, fullWaits, r.Faults)
}

// Each case forces one step of the CPU's Touch chain that used to block on
// the CPU's process (a full write buffer, a busy entry lock, a fault), or
// a drain of the run-ahead queue, and pins what the run produced before
// Touch, Compute and the fault path ran as callbacks (the values are the
// blocking implementation's, recorded once): the chain must reproduce
// them exactly.
func TestSlowPathPins(t *testing.T) {
	type pinCase struct {
		name  string
		cfg   func() param.Config
		kind  Kind
		setup func(m *Machine) // runs before m.Run
		prog  func(ctx *Ctx, proc int, log *[]string)
		check func(m *Machine, r *Result) error
		want  string
	}
	cases := []pinCase{{
		// A one-entry write buffer: every write miss behind another
		// pending one stalls the CPU on the buffer's room.
		name: "write buffer full",
		cfg: func() param.Config {
			cfg := smallCfg()
			cfg.WriteBufferDepth = 1
			return cfg
		},
		kind: Standard,
		prog: func(ctx *Ctx, proc int, _ *[]string) {
			base := PageID(proc * 3)
			for pg := base; pg < base+3; pg++ {
				ctx.Read(pg, 0, 1)
			}
			for rep := 0; rep < 4; rep++ {
				for pg := base; pg < base+3; pg++ {
					for sub := 0; sub < 4; sub++ {
						ctx.Write(pg, sub, 2)
						ctx.Read(pg, sub, 1)
						ctx.Compute(50)
					}
				}
				ctx.Read(6, 0, 1) // shared page: upgrades and invalidations
				ctx.Write(6, 0, 1)
			}
			ctx.Barrier()
		},
		check: func(m *Machine, _ *Result) error {
			if m.Nodes[0].WB.FullWaits == 0 {
				return fmt.Errorf("no full-buffer stall")
			}
			return nil
		},
		want: "exec=6746972 breakdown=[0 0 13473684 800 19460] cc=180/34/8 fullwaits=16 faults=7",
	}, {
		// Page 5's entry lock is held while both CPUs reach it, so each
		// finds it busy; the first to get it faults the page in, and the
		// other then waits for the page in Transit. Pages 6 and 7 are
		// faulted by both CPUs at the same instant.
		name: "busy entry lock then transit",
		cfg:  smallCfg,
		kind: NWCache,
		setup: func(m *Machine) {
			en := m.Table.Get(5)
			m.E.At(0, func() {
				en.Lock.TryLock() // free at t=0
				m.E.At(m.E.Now()+20_000, en.Lock.Unlock)
			})
		},
		prog: func(ctx *Ctx, proc int, _ *[]string) {
			ctx.Compute(int64(100 * (proc + 1)))
			ctx.Read(5, 0, 4)
			ctx.Write(5, proc, 4)
			ctx.Read(6, proc, 2)
			ctx.Read(7, proc, 2)
			ctx.Barrier()
		},
		check: func(_ *Machine, r *Result) error {
			if r.Breakdown.T[stats.Transit] == 0 {
				return fmt.Errorf("no transit wait")
			}
			return nil
		},
		want: "exec=5395920 breakdown=[0 5370444 5413368 600 7428] cc=0/8/1 fullwaits=0 faults=3",
	}, {
		// Now after more than runAhead operations drains the queue first,
		// under memory pressure (faults and swap-outs on the chain), and
		// sees the same times the blocking CPU saw.
		name: "now after run-ahead",
		cfg:  smallCfg,
		kind: NWCache,
		prog: func(ctx *Ctx, proc int, log *[]string) {
			for round := 0; round < 2; round++ {
				for i := 0; i < 3*runAhead+5; i++ {
					ctx.Write(PageID((i+proc*5)%12), i%4, 2)
					if i%7 == 0 {
						ctx.Compute(300)
					}
				}
				*log = append(*log, fmt.Sprintf("cpu%d@%d", proc, ctx.Now()))
			}
			ctx.Barrier()
		},
		want: "exec=579432687 breakdown=[0 569716883 588000956 436600 710935] cc=2/786/0 fullwaits=0 faults=402" +
			" now=[cpu0@566195199 cpu1@575739614 cpu0@579373416 cpu1@579430187]",
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(tc.cfg(), tc.kind, disk.Naive)
			if err != nil {
				t.Fatal(err)
			}
			if tc.setup != nil {
				tc.setup(m)
			}
			var log []string
			res, err := m.Run(&testProg{name: "pin", pages: 16, fn: func(ctx *Ctx, proc int) {
				tc.prog(ctx, proc, &log)
			}})
			if err != nil {
				t.Fatal(err)
			}
			if tc.check != nil {
				if err := tc.check(m, res); err != nil {
					t.Fatal(err)
				}
			}
			got := slowPathSummary(m, res)
			if len(log) > 0 {
				got += fmt.Sprintf(" now=%v", log)
			}
			if got != tc.want {
				t.Fatalf("got  %s\nwant %s", got, tc.want)
			}
		})
	}
}

// A program that panics with operations still queued is not simulated
// further: the panic escapes Machine.Run with its value, which is what
// the worker pool quarantines a crashing cell on.
func TestProgramPanicMidStreamEscapesRun(t *testing.T) {
	m, err := New(smallCfg(), NWCache, disk.Naive)
	if err != nil {
		t.Fatal(err)
	}
	prog := &testProg{name: "crash", pages: 8, fn: func(ctx *Ctx, proc int) {
		for i := 0; i < runAhead+runAhead/2; i++ {
			ctx.Write(PageID(i%8), i%4, 1)
		}
		if proc == 1 {
			panic("program crash")
		}
		ctx.Barrier()
	}}
	var got any
	func() {
		defer func() { got = recover() }()
		_, _ = m.Run(prog)
	}()
	if got != "program crash" {
		t.Fatalf("recovered %v, want the program's panic", got)
	}
}

// Once its pages are resident, a thread's operations run through the
// run-ahead queue and the callback chain without allocating: Touch and
// Compute, coherent-cache hits and misses alike, a lock acquire and
// release, and a one-page file read and write.
func TestChainOpsAllocateNothing(t *testing.T) {
	cfg := smallCfg()
	cfg.MemPerNode = 32 * cfg.PageSize
	var allocs float64
	var reads, writes uint64
	prog := &testProg{name: "allocs", pages: 24, fn: func(ctx *Ctx, proc int) {
		if proc != 0 {
			return
		}
		touchAll := func() {
			for i := 0; i < 3*runAhead; i++ {
				ctx.Read(PageID(i%24), i%4, 1) // 96 blocks cycle through a 64-block cache...
				ctx.Write(0, 0, 1)             // ...beside a block that always hits
				ctx.Compute(10)
			}
			ctx.LockAcquire(1)
			ctx.LockRelease(1)
			ctx.FileRead(40, 1) // file pages beside the 24 data pages
			ctx.FileWrite(41, 1)
			ctx.Now()
		}
		touchAll()
		allocs = testing.AllocsPerRun(20, touchAll)
		n := ctx.Machine().Nodes[0]
		reads, writes = n.ExplicitReads, n.ExplicitWrites
	}}
	cfg.L2SubBlocks = 64 // smaller than the 96 cycling blocks: they miss
	res := runProg(t, cfg, NWCache, disk.Naive, prog)
	if res.ExecTime == 0 {
		t.Fatal("nothing ran")
	}
	if allocs != 0 {
		t.Fatalf("steady-state chain ops allocate %.1f per batch, want 0", allocs)
	}
	// One batch to warm up, then AllocsPerRun's warm-up run and its 20.
	if reads != 22 || writes != 22 {
		t.Fatalf("%d file reads and %d file writes ran, want 22 each", reads, writes)
	}
}

// A queued operation stays 16 bytes: each CPU's queue holds runAhead of
// them, allocated per run.
func TestQueuedOpIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(cpuOp{}); n != 16 {
		t.Fatalf("cpuOp is %d bytes, want 16", n)
	}
}
