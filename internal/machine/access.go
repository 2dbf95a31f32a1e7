package machine

import (
	"math/rand"

	"nwcache/internal/disk"
	"nwcache/internal/optical"
	"nwcache/internal/sim"
	"nwcache/internal/stats"
	"nwcache/internal/vm"
)

// Ctx is the execution context handed to one application thread. All
// methods must be called from that thread's simulation process. Its
// operations charge the owning processor's execution-time breakdown.
//
// Touch (Read, Write) and Compute return nothing, so they are not run as
// they are called: the thread queues up to runAhead of them and then
// parks while its CPU runs them as a chain of engine callbacks (cpu.go).
// The operations that wait or observe — Barrier, LockAcquire/LockRelease,
// FileRead/FileWrite, Now and Machine — first drain the queue, so the
// thread observes exactly the times and state it would if each operation
// ran at its call. The contract for a Program: a Touch or Compute may
// take effect after its call returns, and Go state shared between threads
// may be handed over only across a Barrier or Lock operation.
//
// A Ctx can also be a pure recorder (see NewRecordingCtx): rec is then
// non-nil and every operation is captured as an OpEvent instead of being
// simulated. The rec check is one predicted-not-taken branch per
// operation in the normal (simulating) mode.
type Ctx struct {
	m           *Machine
	n           *Node
	p           *sim.Proc
	proc, procs int
	rng         *rand.Rand
	cpu

	rec func(OpEvent) // non-nil: recording mode, no simulation
}

// newCtx returns thread proc's context with its PRNG seeded from the
// configuration seed. Machine.Run and NewRecordingCtx both build on it,
// so a recorded program draws exactly the stream a simulated one does.
func newCtx(proc, procs int, seed int64) *Ctx {
	return &Ctx{proc: proc, procs: procs, rng: rand.New(rand.NewSource(seed + int64(proc)*1_000_003))}
}

// NewRecordingCtx returns a Ctx that records operations instead of
// simulating them: each call to Compute/Touch/Barrier/... forwards one
// OpEvent to sink and returns immediately. The PRNG stream is seeded
// exactly as Machine.Run seeds thread proc's, so a program replayed from
// the recording makes identical random choices. Now and Machine panic in
// this mode — a recordable program must be time-oblivious (the premise
// of record/replay; see workload.Record).
func NewRecordingCtx(proc, procs int, seed int64, sink func(OpEvent)) *Ctx {
	c := newCtx(proc, procs, seed)
	c.rec = sink
	return c
}

// Proc returns this thread's index (== node id).
func (c *Ctx) Proc() int { return c.proc }

// Procs returns the number of application threads (== nodes).
func (c *Ctx) Procs() int { return c.procs }

// Rand returns this thread's deterministic PRNG.
func (c *Ctx) Rand() *rand.Rand { return c.rng }

// Now returns the current simulation time, once the queued operations
// have run.
func (c *Ctx) Now() sim.Time {
	if c.rec != nil {
		panic("machine: Ctx.Now is unavailable in recording mode (the program must be time-oblivious)")
	}
	c.drain()
	return c.p.Now()
}

// Machine returns the machine the context runs on, once the queued
// operations have run.
func (c *Ctx) Machine() *Machine {
	if c.rec != nil {
		panic("machine: Ctx.Machine is unavailable in recording mode")
	}
	c.drain()
	return c.m
}

// charge records d pcycles against category cat for this CPU.
func (n *Node) charge(cat stats.Category, d int64) {
	if d <= 0 {
		return
	}
	n.CPU.Add(cat, d)
	n.charged += d
}

// Compute burns cycles of pure processor work.
func (c *Ctx) Compute(cycles int64) {
	if cycles <= 0 {
		return
	}
	if c.rec != nil {
		c.rec(OpEvent{Kind: OpCompute, Cycles: cycles})
		return
	}
	c.push(cpuOp{arg: cycles, compute: true})
}

// Barrier joins the machine-wide application barrier. A barrier is a
// release operation: pending buffered writes are fenced first.
func (c *Ctx) Barrier() {
	if c.rec != nil {
		c.rec(OpEvent{Kind: OpBarrier})
		return
	}
	c.drain()
	c.drainInterrupts()
	if c.n.WB != nil {
		c.n.WB.fence(c.p)
	}
	c.m.barrier.Arrive(c.p)
}

// LockAcquire takes application lock id (created on demand).
func (c *Ctx) LockAcquire(id int) {
	if c.rec != nil {
		c.rec(OpEvent{Kind: OpLockAcquire, Lock: id})
		return
	}
	c.drain()
	c.drainInterrupts()
	c.m.Lock(id).Lock(c.p)
}

// LockRelease releases application lock id. A release operation fences
// pending buffered writes first (Release Consistency).
func (c *Ctx) LockRelease(id int) {
	if c.rec != nil {
		c.rec(OpEvent{Kind: OpLockRelease, Lock: id})
		return
	}
	c.drain()
	if c.n.WB != nil {
		c.n.WB.fence(c.p)
	}
	c.m.Lock(id).Unlock()
}

// Read touches `lines` cache lines within sub-block `sub` of `page`.
func (c *Ctx) Read(page PageID, sub, lines int) { c.Touch(page, sub, lines, false) }

// Write touches `lines` cache lines within sub-block `sub` of `page`,
// marking the page dirty.
func (c *Ctx) Write(page PageID, sub, lines int) { c.Touch(page, sub, lines, true) }

// drainInterrupts pays for pending TLB-shootdown interrupts.
func (c *Ctx) drainInterrupts() {
	if c.n.pendingIntr > 0 {
		d := c.n.pendingIntr
		c.n.pendingIntr = 0
		c.p.Sleep(d)
		c.n.charge(stats.TLB, d)
	}
}

// Touch performs one memory operation: interrupts, TLB, residency
// (faulting as needed), then the data movement cost (see Ctx.advance).
// The line count only matters to a recording.
func (c *Ctx) Touch(page PageID, sub, lines int, write bool) {
	if c.rec != nil {
		if lines < 1 {
			lines = 1
		}
		c.rec(OpEvent{Kind: OpTouch, Page: page, Sub: sub, Lines: lines, Write: write})
		return
	}
	c.push(cpuOp{arg: page, sub: int32(sub), write: write})
}

// finishFault installs the fetched page as Resident on n.
func (m *Machine) finishFault(p *sim.Proc, n *Node, en *vm.Entry, dirty bool) {
	en.Lock.Lock(p)
	en.State = vm.Resident
	en.Owner = n.ID
	en.RingEntry = nil
	en.Dirty = dirty
	n.Pool.AdoptReserved(en.Page)
	en.Arrived.Broadcast()
	en.Lock.Unlock()
}

// allocFrame reserves a page frame on n, stalling in NoFree while the node
// is out of free frames.
func (m *Machine) allocFrame(p *sim.Proc, n *Node) {
	t0 := p.Now()
	for !n.Pool.HasFree() {
		n.Pool.FrameFreed.Wait(p)
	}
	n.Pool.Reserve()
	n.charge(stats.NoFree, p.Now()-t0)
}

// diskReadInto performs the full page-read protocol: request message to
// the I/O node, controller/media service, and the data transfer back
// through the I/O bus, mesh, and the requester's memory bus. Reports how
// the disk controller served it.
func (m *Machine) diskReadInto(p *sim.Proc, n *Node, page PageID) disk.ReadOutcome {
	d, dn := m.DiskFor(page)
	arrive := m.Mesh.Transit(p.Now(), n.ID, dn, m.Cfg.CtrlMsgLen)
	p.SleepUntil(arrive)
	outcome := d.Read(p, n.ID, page, m.Layout.BlockFor(page))
	stages := append(n.stageBuf[:0], sim.Stage{
		Res: m.Nodes[dn].IOBus, Occupy: m.Cfg.PageIOBusTime(), Forward: m.Cfg.HopLatency,
	})
	stages = m.Mesh.AppendPathStages(stages, dn, n.ID, m.Cfg.PageSize)
	stages = append(stages, sim.Stage{Res: n.MemBus, Occupy: m.Cfg.PageMemBusTime()})
	_, dataArrive := sim.Pipeline(p.Now(), stages)
	n.stageBuf = stages[:0]
	p.SleepUntil(dataArrive)
	return outcome
}

// ringReadInto snoops a page off its cache channel into n's memory: wait
// for the next pass, stream it off the fiber, and cross the local I/O and
// memory buses. The mesh is never touched — the contention benefit the
// paper measures.
func (m *Machine) ringReadInto(p *sim.Proc, n *Node, en *optical.Entry) {
	m.Ring.Snoop(p, en, n.ID)
	stages := append(n.stageBuf[:0],
		sim.Stage{Res: n.IOBus, Occupy: m.Cfg.PageIOBusTime(), Forward: m.Cfg.HopLatency},
		sim.Stage{Res: n.MemBus, Occupy: m.Cfg.PageMemBusTime()},
	)
	_, arrive := sim.Pipeline(p.Now(), stages)
	n.stageBuf = stages[:0]
	p.SleepUntil(arrive)
}
