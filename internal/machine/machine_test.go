package machine

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"nwcache/internal/disk"
	"nwcache/internal/mesh"
	"nwcache/internal/param"
	"nwcache/internal/sim"
	"nwcache/internal/stats"
)

// testProg is a synthetic Program driven by a closure.
type testProg struct {
	name  string
	pages int64
	fn    func(ctx *Ctx, proc int)
}

func (t *testProg) Name() string     { return t.name }
func (t *testProg) DataPages() int64 { return t.pages }
func (t *testProg) Run(ctx *Ctx, proc int) {
	t.fn(ctx, proc)
}

// smallCfg is a 2-node machine with tiny memories for fast, pressured
// tests.
func smallCfg() param.Config {
	cfg := param.Default()
	cfg.Nodes = 2
	cfg.IONodes = 1
	cfg.MeshW = 2
	cfg.MeshH = 1
	cfg.RingChannels = 2
	cfg.MemPerNode = 8 * cfg.PageSize // 8 frames
	cfg.MinFreeFrames = 2
	return cfg
}

func runProg(t *testing.T, cfg param.Config, kind Kind, mode disk.PrefetchMode, prog Program) *Result {
	t.Helper()
	m, err := New(cfg, kind, mode)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSimpleProgramCompletes(t *testing.T) {
	prog := &testProg{name: "simple", pages: 4, fn: func(ctx *Ctx, proc int) {
		for pg := PageID(0); pg < 4; pg++ {
			ctx.Read(pg, 0, 8)
		}
		ctx.Compute(1000)
		ctx.Barrier()
	}}
	for _, kind := range []Kind{Standard, NWCache} {
		res := runProg(t, smallCfg(), kind, disk.Naive, prog)
		if res.ExecTime <= 0 {
			t.Fatalf("%v: exec time %d", kind, res.ExecTime)
		}
		if res.Faults == 0 {
			t.Fatalf("%v: no faults for cold pages", kind)
		}
	}
}

func TestFirstTouchFaultsOncePerPage(t *testing.T) {
	prog := &testProg{name: "warm", pages: 4, fn: func(ctx *Ctx, proc int) {
		if proc != 0 {
			return
		}
		for rep := 0; rep < 3; rep++ {
			for pg := PageID(0); pg < 4; pg++ {
				ctx.Read(pg, 0, 8)
			}
		}
	}}
	res := runProg(t, smallCfg(), Standard, disk.Naive, prog)
	if res.Faults != 4 {
		t.Fatalf("faults %d, want 4 (one per page, rest warm)", res.Faults)
	}
}

func TestBreakdownSumsToExecTimePerNode(t *testing.T) {
	prog := &testProg{name: "sum", pages: 20, fn: func(ctx *Ctx, proc int) {
		for pg := PageID(0); pg < 20; pg++ {
			ctx.Write(pg, int(pg)%4, 16)
			ctx.Compute(500)
		}
		ctx.Barrier()
	}}
	res := runProg(t, smallCfg(), Standard, disk.Naive, prog)
	for i, b := range res.PerNode {
		if b.Total() <= 0 {
			t.Fatalf("node %d: empty breakdown", i)
		}
	}
	// All nodes hit the final barrier, so each node's breakdown total
	// equals the machine exec time.
	for i, b := range res.PerNode {
		if b.Total() != res.ExecTime {
			t.Fatalf("node %d breakdown %d != exec %d", i, b.Total(), res.ExecTime)
		}
	}
}

func TestMemoryPressureForcesSwapOuts(t *testing.T) {
	// 2 nodes x 8 frames = 16 frames total; write 64 pages from node 0.
	prog := &testProg{name: "pressure", pages: 64, fn: func(ctx *Ctx, proc int) {
		if proc != 0 {
			return
		}
		for pg := PageID(0); pg < 64; pg++ {
			ctx.Write(pg, 0, 16)
		}
	}}
	res := runProg(t, smallCfg(), Standard, disk.Naive, prog)
	if res.SwapOuts == 0 {
		t.Fatal("no swap-outs despite 8x oversubscription")
	}
	if res.AvgSwapTime <= 0 {
		t.Fatal("swap time not measured")
	}
}

func TestCleanPagesEvictWithoutSwap(t *testing.T) {
	prog := &testProg{name: "cleanevict", pages: 64, fn: func(ctx *Ctx, proc int) {
		if proc != 0 {
			return
		}
		for pg := PageID(0); pg < 64; pg++ {
			ctx.Read(pg, 0, 16) // reads only: pages stay clean
		}
	}}
	res := runProg(t, smallCfg(), Standard, disk.Naive, prog)
	if res.SwapOuts != 0 {
		t.Fatalf("%d swap-outs for clean pages", res.SwapOuts)
	}
	if res.CleanEvicts == 0 {
		t.Fatal("no clean evictions despite pressure")
	}
}

func TestNWCacheSwapOutsMuchFasterThanStandard(t *testing.T) {
	mk := func(kind Kind) *Result {
		prog := &testProg{name: "swaps", pages: 64, fn: func(ctx *Ctx, proc int) {
			for pg := PageID(proc * 64); pg < PageID(proc*64+64); pg++ {
				ctx.Write(pg, 0, 16)
			}
		}}
		return runProg(t, smallCfg(), kind, disk.Optimal, prog)
	}
	std := mk(Standard)
	nwc := mk(NWCache)
	if std.SwapOuts == 0 || nwc.SwapOuts == 0 {
		t.Fatalf("swap-outs std=%d nwc=%d", std.SwapOuts, nwc.SwapOuts)
	}
	if nwc.AvgSwapTime >= std.AvgSwapTime {
		t.Fatalf("NWCache swap time %.0f >= standard %.0f; paper expects orders of magnitude faster",
			nwc.AvgSwapTime, std.AvgSwapTime)
	}
}

func TestVictimCachingRingHit(t *testing.T) {
	// Under optimal prefetching faults are fast, so a burst of dirty
	// writes swaps pages out faster than the disk can drain them off the
	// ring; a recently evicted page is then still circulating when touched
	// again and must be served by a ring (victim) hit.
	prog := &testProg{name: "victim", pages: 64, fn: func(ctx *Ctx, proc int) {
		if proc != 0 {
			return
		}
		for pg := PageID(0); pg < 30; pg++ {
			ctx.Write(pg, 0, 16)
		}
		ctx.Read(20, 0, 16) // evicted late: still on the ring
	}}
	res := runProg(t, smallCfg(), NWCache, disk.Optimal, prog)
	if res.RingHits == 0 {
		t.Fatal("no ring hits; victim caching inoperative")
	}
	if res.RingHitRate <= 0 {
		t.Fatal("ring hit rate not computed")
	}
}

func TestRemoteAccessCrossNode(t *testing.T) {
	prog := &testProg{name: "remote", pages: 2, fn: func(ctx *Ctx, proc int) {
		if proc == 0 {
			ctx.Write(0, 0, 16) // node 0 becomes owner
		}
		ctx.Barrier()
		if proc == 1 {
			ctx.Read(0, 1, 16) // remote access to node 0's copy
		}
		ctx.Barrier()
	}}
	res := runProg(t, smallCfg(), Standard, disk.Naive, prog)
	if res.RemoteAccs == 0 {
		t.Fatal("no remote accesses recorded")
	}
	if res.Faults != 1 {
		t.Fatalf("faults %d, want 1 (second node reuses the resident copy)", res.Faults)
	}
}

func TestTransitWaitWhenBothFaultSamePage(t *testing.T) {
	prog := &testProg{name: "transit", pages: 1, fn: func(ctx *Ctx, proc int) {
		// Both procs fault on page 0 at t=0: exactly one services the
		// fault, the other waits in Transit.
		ctx.Read(0, 0, 8)
		ctx.Barrier()
	}}
	res := runProg(t, smallCfg(), Standard, disk.Naive, prog)
	if res.Faults != 1 {
		t.Fatalf("faults %d, want 1", res.Faults)
	}
	if res.Breakdown.T[stats.Transit] == 0 {
		t.Fatal("no Transit time despite concurrent fault")
	}
}

func TestNoFreeAccountedUnderPressure(t *testing.T) {
	cfg := smallCfg()
	prog := &testProg{name: "nofree", pages: 200, fn: func(ctx *Ctx, proc int) {
		if proc != 0 {
			return
		}
		for pg := PageID(0); pg < 200; pg++ {
			ctx.Write(pg, 0, 32)
		}
	}}
	res := runProg(t, cfg, Standard, disk.Optimal, prog)
	if res.Breakdown.T[stats.NoFree] == 0 {
		t.Fatal("no NoFree time despite sustained dirty pressure")
	}
}

func TestTLBChargesAppear(t *testing.T) {
	prog := &testProg{name: "tlb", pages: 8, fn: func(ctx *Ctx, proc int) {
		if proc != 0 {
			return
		}
		for pg := PageID(0); pg < 8; pg++ {
			ctx.Read(pg, 0, 4)
		}
	}}
	res := runProg(t, smallCfg(), Standard, disk.Naive, prog)
	if res.Breakdown.T[stats.TLB] == 0 {
		t.Fatal("no TLB time charged for cold translations")
	}
}

func TestDeterminism(t *testing.T) {
	prog := func() Program {
		return &testProg{name: "det", pages: 40, fn: func(ctx *Ctx, proc int) {
			rng := rand.New(rand.NewSource(int64(proc)*1_000_003 + 1))
			for i := 0; i < 60; i++ {
				pg := PageID(rng.Intn(40))
				if rng.Intn(2) == 0 {
					ctx.Write(pg, rng.Intn(4), 8)
				} else {
					ctx.Read(pg, rng.Intn(4), 8)
				}
				ctx.Compute(int64(rng.Intn(200)))
			}
			ctx.Barrier()
		}}
	}
	for _, kind := range []Kind{Standard, NWCache} {
		a := runProg(t, smallCfg(), kind, disk.Naive, prog())
		b := runProg(t, smallCfg(), kind, disk.Naive, prog())
		if a.ExecTime != b.ExecTime || a.Faults != b.Faults || a.SwapOuts != b.SwapOuts {
			t.Fatalf("%v nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", kind,
				a.ExecTime, a.Faults, a.SwapOuts, b.ExecTime, b.Faults, b.SwapOuts)
		}
	}
}

func TestRingDrainsToDiskEventually(t *testing.T) {
	cfg := smallCfg()
	prog := &testProg{name: "drain", pages: 64, fn: func(ctx *Ctx, proc int) {
		if proc != 0 {
			return
		}
		for pg := PageID(0); pg < 40; pg++ {
			ctx.Write(pg, 0, 16)
		}
	}}
	m, err := New(cfg, NWCache, disk.Naive)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapOuts == 0 {
		t.Fatal("no swap-outs")
	}
	// After the run drains, the ring must be empty: every swap-out either
	// reached a disk or was victim-read.
	if m.Ring.TotalUsed() != 0 {
		t.Fatalf("%d pages stranded on the ring", m.Ring.TotalUsed())
	}
	var mediaWrites uint64
	for _, d := range m.Disks {
		if d != nil {
			mediaWrites += d.MediaWrite
		}
	}
	if mediaWrites == 0 {
		t.Fatal("no media writes: drained pages never hit the disk")
	}
}

func TestStandardMachineNACKPathExercised(t *testing.T) {
	cfg := smallCfg()
	prog := &testProg{name: "nack", pages: 200, fn: func(ctx *Ctx, proc int) {
		for pg := PageID(proc * 100); pg < PageID(proc*100+100); pg++ {
			ctx.Write(pg, 0, 32)
		}
	}}
	m, err := New(cfg, Standard, disk.Optimal)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	var nacks uint64
	for _, d := range m.Disks {
		if d != nil {
			nacks += d.WritesNACK
		}
	}
	if nacks == 0 {
		t.Fatal("no NACKs under heavy dirty pressure; flow control untested")
	}
	for _, d := range m.Disks {
		if d != nil && d.PendingNACKs() != 0 {
			t.Fatalf("%d NACKs never released", d.PendingNACKs())
		}
	}
}

// Each NACK gets its own OK: three same-page writes from one node are
// NACKed, the first with no step (the NWCache interface's lost slot race),
// and the OKs a single write-back releases land in one instant. Each
// writer's step runs exactly once, at its OK's arrival; the stepless OK
// wakes nobody but still crosses the mesh.
func TestEachNACKGetsItsOwnOK(t *testing.T) {
	cfg := param.Default()
	cfg.CtrlMsgLen = 0 // every OK from one disk to one node lands in the same instant
	m, err := New(cfg, Standard, disk.Optimal)
	if err != nil {
		t.Fatal(err)
	}
	base := PageID(cfg.StripeGroup) // the second striping group: a disk away from node 0
	d, dn := m.DiskFor(base)
	if dn == 0 {
		t.Fatal("the disk is on the writing node: its OKs would not cross the mesh")
	}
	for pg := base; d.HasWriteRoom(); pg++ { // consecutive blocks: one write-back group
		if d.AnswerWrite(1, pg, m.Layout.BlockFor(pg), nil) != disk.ACK {
			t.Fatal("write NACKed while the cache had room")
		}
	}
	page := base + PageID(cfg.StripeGroup)/2
	var ran [2]int
	var at [2]sim.Time
	steps := []func(){nil}
	for i := range ran {
		steps = append(steps, func() { ran[i]++; at[i] = m.E.Now() })
	}
	for _, step := range steps {
		if d.AnswerWrite(0, page, m.Layout.BlockFor(page), step) != disk.NACK {
			t.Fatal("write ACKed into a cache full of swap-outs")
		}
	}
	released := sim.Time(-1)
	d.OnRoom = func() {
		if released < 0 && d.PendingNACKs() == 0 {
			released = m.E.Now()
		}
	}
	if err := m.E.Run(); err != nil {
		t.Fatal(err)
	}
	if released < 0 {
		t.Fatal("the write-back never released the NACKs")
	}
	arrive := mesh.New(sim.New(), cfg).Transit(released, dn, 0, cfg.CtrlMsgLen)
	if ran != [2]int{1, 1} || at != [2]sim.Time{arrive, arrive} {
		t.Fatalf("steps ran %v times at %v, want once each at the OKs' arrival %d", ran, at, arrive)
	}
	if m.Mesh.Messages != 3 {
		t.Fatalf("%d messages crossed the mesh, want the 3 OKs", m.Mesh.Messages)
	}
}

func TestOptimalPrefetchFaultsFasterThanNaive(t *testing.T) {
	mk := func(mode disk.PrefetchMode) *Result {
		prog := &testProg{name: "pf", pages: 64, fn: func(ctx *Ctx, proc int) {
			if proc != 0 {
				return
			}
			for pg := PageID(0); pg < 40; pg++ {
				ctx.Read(pg*3%40, 0, 8) // non-sequential: defeats naive prefetch
			}
		}}
		return runProg(t, smallCfg(), Standard, mode, prog)
	}
	naive := mk(disk.Naive)
	optimal := mk(disk.Optimal)
	if optimal.ExecTime >= naive.ExecTime {
		t.Fatalf("optimal %d >= naive %d exec time", optimal.ExecTime, naive.ExecTime)
	}
}

func TestKindString(t *testing.T) {
	if Standard.String() != "standard" || NWCache.String() != "nwcache" {
		t.Fatal("kind strings")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := smallCfg()
	cfg.MinFreeFrames = 0
	if _, err := New(cfg, Standard, disk.Naive); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestCtxAccessorsAndLocks(t *testing.T) {
	cfg := smallCfg()
	m, err := New(cfg, Standard, disk.Naive)
	if err != nil {
		t.Fatal(err)
	}
	var sawProcs, sawProc int
	var sawNow int64 = -1
	prog := &testProg{name: "accessors", pages: 4, fn: func(ctx *Ctx, proc int) {
		if proc == 0 {
			sawProc = ctx.Proc()
			sawProcs = ctx.Procs()
			ctx.Compute(10)
			sawNow = ctx.Now()
			if ctx.Machine() != m {
				t.Error("Machine() returned wrong machine")
			}
		}
		// Locks serialize a shared counter across procs.
		ctx.LockAcquire(7)
		ctx.Compute(100)
		ctx.LockRelease(7)
		ctx.Barrier()
	}}
	if _, err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	if sawProc != 0 || sawProcs != cfg.Nodes {
		t.Fatalf("Proc=%d Procs=%d", sawProc, sawProcs)
	}
	if sawNow < 10 {
		t.Fatalf("Now()=%d after Compute(10)", sawNow)
	}
}

func TestCheckInvariantsMidRunTolerant(t *testing.T) {
	// postRun=false must tolerate in-flight state (Transit pages etc.).
	cfg := smallCfg()
	m, err := New(cfg, NWCache, disk.Optimal)
	if err != nil {
		t.Fatal(err)
	}
	prog := &testProg{name: "midrun", pages: 64, fn: func(ctx *Ctx, proc int) {
		for pg := PageID(proc * 30); pg < PageID(proc*30+30); pg++ {
			ctx.Write(pg, 0, 16)
		}
		if proc == 0 {
			ctx.Now() // run the queued writes before checking state
			if err := m.CheckInvariants(false); err != nil {
				t.Errorf("mid-run invariants: %v", err)
			}
		}
		ctx.Barrier()
	}}
	if _, err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}

func TestUtilizationTableBounded(t *testing.T) {
	cfg := smallCfg()
	m, err := New(cfg, NWCache, disk.Naive)
	if err != nil {
		t.Fatal(err)
	}
	prog := &testProg{name: "util", pages: 40, fn: func(ctx *Ctx, proc int) {
		for pg := PageID(proc * 20); pg < PageID(proc*20+20); pg++ {
			ctx.Write(pg, 0, 16)
		}
		ctx.Barrier()
	}}
	if _, err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	tbl := m.UtilizationTable()
	out := tbl.String()
	for _, want := range []string{"membus0", "disk@0 arm", "mesh busiest link", "ring peak occupancy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("utilization table missing %q:\n%s", want, out)
		}
	}
	// Every fractional row stays within [0, 1].
	for _, row := range tbl.Rows {
		if row[0] == "ring peak occupancy" {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(row[1]), 64)
		if err != nil {
			t.Fatalf("unparseable utilization %q", row[1])
		}
		if v < 0 || v > 1.0001 {
			t.Fatalf("%s utilization %f out of range", row[0], v)
		}
	}
}

// TestNewRejectsOutOfRangeCacheSizes: a config whose TLB, coherent cache
// or frame pool cannot be built is an error from New, not a panic in a
// constructor.
func TestNewRejectsOutOfRangeCacheSizes(t *testing.T) {
	for name, mod := range map[string]func(*param.Config){
		"TLBEntries=0":  func(c *param.Config) { c.TLBEntries = 0 },
		"L2SubBlocks=0": func(c *param.Config) { c.L2SubBlocks = 0 },
		"frames=65536":  func(c *param.Config) { c.MemPerNode = (1 << 16) * c.PageSize },
	} {
		cfg := smallCfg()
		mod(&cfg)
		if _, err := New(cfg, Standard, disk.Naive); err == nil {
			t.Errorf("%s: New accepted the config", name)
		}
	}
}

// A swap-out that never finishes is a continuation, not a process, so
// the engine cannot name it; Run must report the node instead of
// returning a result.
func TestStrandedSwapOutNamesNode(t *testing.T) {
	cfg := smallCfg()
	m, err := New(cfg, NWCache, disk.Naive)
	if err != nil {
		t.Fatal(err)
	}
	// Hold node 0's ring transmitter for the whole run: its first
	// swap-out can never insert its page.
	if !m.Nodes[0].ringTx.TryLock() {
		t.Fatal("transmitter busy before the run")
	}
	// Dirty just enough pages to sink node 0 to its free-frame floor,
	// then finish.
	dirty := PageID(cfg.FramesPerNode() - cfg.MinFreeFrames)
	prog := &testProg{name: "strand", pages: int64(dirty), fn: func(ctx *Ctx, proc int) {
		if proc != 0 {
			return
		}
		for pg := PageID(0); pg < dirty; pg++ {
			ctx.Write(pg, 0, 16)
		}
	}}
	_, err = m.Run(prog)
	if err == nil {
		t.Fatal("run with a stranded swap-out succeeded")
	}
	if !strings.Contains(err.Error(), "swap-outs stranded") || !strings.Contains(err.Error(), "node 0 (") {
		t.Fatalf("error does not name node 0: %v", err)
	}
	if strings.Contains(err.Error(), "node 1 (") {
		t.Fatalf("error names node 1, whose swap-outs all finished: %v", err)
	}
}
