package machine

import (
	"math/rand"

	"nwcache/internal/sim"
	"nwcache/internal/stats"
)

// Ctx is the execution context handed to one application thread. All
// methods must be called from that thread's program, which runs as a
// coroutine owned by the machine (thread.go). Its operations charge the
// owning processor's execution-time breakdown.
//
// Touch (Read, Write) and Compute return nothing, so they are not run as
// they are called: the thread queues up to runAhead of them and then
// blocks while its CPU runs them as a chain of engine callbacks (cpu.go).
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
	proc, procs int
	seed        int64      // this thread's PRNG seed
	rng         *rand.Rand // built from seed on the first Rand call
	cpu

	// The thread's coroutine (thread.go).
	pull   func() (struct{}, bool) // run the thread until it blocks or ends
	stop   func()                  // unwind the thread if it is stranded
	yield  func(struct{}) bool     // give control back to the resuming callback
	resume func()                  // pre-bound: count and pull
	waitOn string                  // what the thread last blocked on
	since  sim.Time                // when it blocked
	done   bool                    // the program returned and its queue ran

	rec func(OpEvent) // non-nil: recording mode, no simulation
}

// newCtx returns thread proc's context with its PRNG seed derived from
// the configuration seed. Machine.Run and NewRecordingCtx both build on
// it, so a recorded program draws exactly the stream a simulated one does.
func newCtx(proc, procs int, seed int64) *Ctx {
	return &Ctx{proc: proc, procs: procs, seed: seed + int64(proc)*1_000_003}
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

// Rand returns this thread's deterministic PRNG. The source (~5 KB) is
// built on the first call, so a program that draws nothing pays nothing.
func (c *Ctx) Rand() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.seed))
	}
	return c.rng
}

// Now returns the current simulation time, once the queued operations
// have run.
func (c *Ctx) Now() sim.Time {
	if c.rec != nil {
		panic("machine: Ctx.Now is unavailable in recording mode (the program must be time-oblivious)")
	}
	c.drain()
	return c.m.E.Now()
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
	c.fence()
	if !c.m.barrier.ArriveThen(c.resume) {
		c.block("barrier")
	}
}

// LockAcquire takes application lock id (created on demand).
func (c *Ctx) LockAcquire(id int) {
	if c.rec != nil {
		c.rec(OpEvent{Kind: OpLockAcquire, Lock: id})
		return
	}
	c.drain()
	c.drainInterrupts()
	l := c.m.Lock(id)
	for !l.TryLock() {
		l.WaitThen(c.resume)
		c.block("lock")
	}
}

// LockRelease releases application lock id. A release operation fences
// pending buffered writes first (Release Consistency).
func (c *Ctx) LockRelease(id int) {
	if c.rec != nil {
		c.rec(OpEvent{Kind: OpLockRelease, Lock: id})
		return
	}
	c.drain()
	c.fence()
	c.m.Lock(id).Unlock()
}

// Read touches `lines` cache lines within sub-block `sub` of `page`.
func (c *Ctx) Read(page PageID, sub, lines int) { c.Touch(page, sub, lines, false) }

// Write touches `lines` cache lines within sub-block `sub` of `page`,
// marking the page dirty.
func (c *Ctx) Write(page PageID, sub, lines int) { c.Touch(page, sub, lines, true) }

// drainInterrupts pays for pending TLB-shootdown interrupts.
func (c *Ctx) drainInterrupts() {
	if d := c.n.pendingIntr; d > 0 {
		c.n.pendingIntr = 0
		c.sleep(d)
		c.n.charge(stats.TLB, d)
	}
}

// sleep blocks the thread for d >= 0 pcycles: one event, even for d == 0.
func (c *Ctx) sleep(d sim.Time) {
	c.m.E.After(d, c.resume)
	c.block("sleep")
}

// sleepTill blocks the thread until t; a t not in the future returns at
// once, scheduling nothing.
func (c *Ctx) sleepTill(t sim.Time) {
	if t > c.m.E.Now() {
		c.sleep(t - c.m.E.Now())
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
