package machine

import (
	"testing"

	"nwcache/internal/disk"
	"nwcache/internal/param"
)

// wbCfg is smallCfg with the write buffer enabled.
func wbCfg() param.Config {
	cfg := smallCfg()
	cfg.WriteBufferDepth = 8
	return cfg
}

func TestWriteBufferHidesWriteMissLatency(t *testing.T) {
	// Two nodes share a page; node 1 repeatedly writes blocks owned (and
	// read) by node 0. With the write buffer those coherence misses are
	// off the critical path, so execution is faster than without.
	prog := func() Program {
		return &testProg{name: "wb", pages: 4, fn: func(ctx *Ctx, proc int) {
			if proc == 0 {
				for pg := PageID(0); pg < 4; pg++ {
					ctx.Write(pg, 0, 16)
				}
			}
			ctx.Barrier()
			if proc == 1 {
				for rep := 0; rep < 50; rep++ {
					for pg := PageID(0); pg < 4; pg++ {
						ctx.Write(pg, rep%4, 8)
						ctx.Compute(50)
					}
				}
			}
			ctx.Barrier()
		}}
	}
	without := runProg(t, smallCfg(), Standard, disk.Naive, prog())
	with := runProg(t, wbCfg(), Standard, disk.Naive, prog())
	if with.ExecTime >= without.ExecTime {
		t.Fatalf("write buffer did not help: %d vs %d", with.ExecTime, without.ExecTime)
	}
}

func TestWriteBufferCoalesces(t *testing.T) {
	cfg := wbCfg()
	m, err := New(cfg, Standard, disk.Naive)
	if err != nil {
		t.Fatal(err)
	}
	prog := &testProg{name: "coalesce", pages: 2, fn: func(ctx *Ctx, proc int) {
		if proc == 0 {
			// Warm the page locally, then hand it to node 1.
			ctx.Write(0, 0, 8)
		}
		ctx.Barrier()
		if proc == 1 {
			// Burst of writes to the same block: one miss, many coalesced.
			for i := 0; i < 10; i++ {
				ctx.Write(0, 0, 8)
			}
		}
		ctx.Barrier()
	}}
	if _, err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	if m.Nodes[1].WB.Coalesced == 0 {
		t.Fatal("no coalescing for repeated writes to one block")
	}
}

func TestWriteBufferFencesAtBarrier(t *testing.T) {
	cfg := wbCfg()
	m, err := New(cfg, Standard, disk.Naive)
	if err != nil {
		t.Fatal(err)
	}
	prog := &testProg{name: "fence", pages: 8, fn: func(ctx *Ctx, proc int) {
		if proc == 0 {
			for pg := PageID(0); pg < 8; pg++ {
				ctx.Write(pg, 0, 8)
			}
		}
		ctx.Barrier()
		// After the barrier (a release), node 0's buffer must be empty.
		if proc == 0 && m.Nodes[0].WB.count != 0 {
			t.Errorf("%d writes unfenced after barrier", m.Nodes[0].WB.count)
		}
		ctx.Barrier()
	}}
	if _, err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	if m.Nodes[0].WB.Drained == 0 {
		t.Fatal("buffer never drained anything")
	}
}

func TestWriteBufferFullStalls(t *testing.T) {
	cfg := wbCfg()
	cfg.WriteBufferDepth = 1 // single slot: every second write stalls
	m, err := New(cfg, Standard, disk.Naive)
	if err != nil {
		t.Fatal(err)
	}
	prog := &testProg{name: "full", pages: 8, fn: func(ctx *Ctx, proc int) {
		// Node 0 owns the pages; node 1's writes then need remote
		// ownership transfers, which take long enough to back up a
		// single-slot buffer.
		if proc == 0 {
			for pg := PageID(0); pg < 8; pg++ {
				ctx.Write(pg, 0, 8)
			}
		}
		ctx.Barrier()
		if proc == 1 {
			for pg := PageID(0); pg < 8; pg++ {
				ctx.Write(pg, 0, 8)
			}
		}
		ctx.Barrier()
	}}
	if _, err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	if m.Nodes[1].WB.FullWaits == 0 {
		t.Fatal("depth-1 buffer never filled")
	}
}

func TestWriteBufferInvariantsUnderStress(t *testing.T) {
	cfg := param.Default()
	cfg.WriteBufferDepth = 8
	cfg.MemPerNode = 8 * cfg.PageSize
	cfg.MinFreeFrames = 2
	runStress(t, cfg, Standard, disk.Naive)
	runStress(t, cfg, NWCache, disk.Optimal)
}

func TestWriteBufferReadForwarding(t *testing.T) {
	cfg := wbCfg()
	m, err := New(cfg, Standard, disk.Naive)
	if err != nil {
		t.Fatal(err)
	}
	var misses uint64
	prog := &testProg{name: "fwd", pages: 2, fn: func(ctx *Ctx, proc int) {
		if proc == 0 {
			ctx.Write(0, 0, 8)
		}
		ctx.Barrier()
		if proc == 1 {
			ctx.Write(0, 0, 8) // buffered miss
			ctx.Now()          // run the queued Write before reading state
			before := m.Nodes[1].CC.Misses
			ctx.Read(0, 0, 8) // must forward from the buffer, not miss
			ctx.Now()
			misses = m.Nodes[1].CC.Misses - before
		}
		ctx.Barrier()
	}}
	if _, err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	if misses != 0 {
		t.Fatalf("read after buffered write missed (%d)", misses)
	}
}
