package machine

import (
	"nwcache/internal/sim"
	"nwcache/internal/stats"
)

// Ctx is the execution context handed to one application thread. All
// methods must be called from that thread's program, which runs as a
// coroutine owned by the machine (thread.go). Its operations charge the
// owning processor's execution-time breakdown.
//
// Every operation is queued, not run at its call: the thread queues up to
// runAhead of them, and its CPU runs the queue as a chain of engine
// callbacks (cpu.go) in which every wait — a fault, a barrier, a lock, an
// interrupt or system-call sleep, a write-buffer fence, a file transfer —
// is a step. The thread blocks at one point, Ctx.drain, until the queue
// has run. It drains when the queue is full, after queuing a Barrier or a
// LockAcquire, at Now and Machine, and when the program returns, so it
// observes exactly the times and state it would if each operation ran at
// its call. The contract for a Program: an operation may take effect
// after its call returns, and Go state shared between threads may be
// handed over only across a Barrier or Lock operation.
//
// A Ctx can also be a pure recorder (see NewRecordingCtx): rec is then a
// sink on the same queue, which receives each operation as an OpEvent
// instead of queuing it, and nothing is simulated.
type Ctx struct {
	m           *Machine
	n           *Node
	proc, procs int
	cpu

	// The thread's coroutine (thread.go).
	pull   func() (struct{}, bool) // run the thread until it blocks or ends
	stop   func()                  // unwind the thread if it is stranded
	yield  func(struct{}) bool     // give control back to the resuming callback
	resume func()                  // pre-bound: count and pull
	since  sim.Time                // when the chain last parked
	done   bool                    // the program returned and its queue ran

	rec func(OpEvent) // non-nil: recording mode, no simulation
}

// newCtx returns thread proc's context. Machine.Run and NewRecordingCtx
// both build on it.
func newCtx(proc, procs int) *Ctx {
	return &Ctx{proc: proc, procs: procs}
}

// NewRecordingCtx returns a Ctx that records operations instead of
// simulating them: each call to Compute/Touch/Barrier/... forwards one
// OpEvent to sink and returns immediately. The seed is not read: a
// program that needs randomness owns a PRNG seeded from its constructor
// arguments, so its stream is the same recorded or simulated. Now and
// Machine panic in this mode — a recordable program must be
// time-oblivious (the premise of record/replay; see workload.Record).
func NewRecordingCtx(proc, procs int, _ int64, sink func(OpEvent)) *Ctx {
	c := newCtx(proc, procs)
	c.rec = sink
	return c
}

// Proc returns this thread's index (== node id).
func (c *Ctx) Proc() int { return c.proc }

// Procs returns the number of application threads (== nodes).
func (c *Ctx) Procs() int { return c.procs }

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
	if cycles > 0 {
		c.push(cpuOp{arg: cycles, kind: OpCompute})
	}
}

// Barrier joins the machine-wide application barrier. A barrier is a
// release operation: pending buffered writes are fenced first.
func (c *Ctx) Barrier() {
	c.push(cpuOp{kind: OpBarrier})
	c.drain()
}

// LockAcquire takes application lock id (created on demand).
func (c *Ctx) LockAcquire(id int) {
	c.push(cpuOp{arg: int64(id), kind: OpLockAcquire})
	c.drain()
}

// LockRelease releases application lock id. A release operation fences
// pending buffered writes first (Release Consistency).
func (c *Ctx) LockRelease(id int) {
	c.push(cpuOp{arg: int64(id), kind: OpLockRelease})
}

// Read touches `lines` cache lines within sub-block `sub` of `page`.
func (c *Ctx) Read(page PageID, sub, lines int) { c.Touch(page, sub, lines, false) }

// Write touches `lines` cache lines within sub-block `sub` of `page`,
// marking the page dirty.
func (c *Ctx) Write(page PageID, sub, lines int) { c.Touch(page, sub, lines, true) }

// Touch performs one memory operation: interrupts, TLB, residency
// (faulting as needed), then the data movement cost (see Ctx.advance).
// The line count only matters to a recording.
func (c *Ctx) Touch(page PageID, sub, lines int, write bool) {
	op := cpuOp{arg: page, n: int32(lines), kind: OpTouch}
	op.touch.sub, op.touch.write = uint8(sub), write
	c.push(op)
}
