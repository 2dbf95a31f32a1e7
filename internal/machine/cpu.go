package machine

// A thread's operations run as a chain of engine callbacks fed by a
// bounded run-ahead queue (see Ctx, and MODEL.md, "Engine fast path").
// Every wait is a step of that chain — the whole fault path, a barrier or
// lock wait, an interrupt or system-call sleep, a write-buffer fence, and
// the disk transfers of explicit file I/O — so the thread blocks only in
// Ctx.drain while the chain runs. Every callback of the chain is a whole
// engine event or ends one (a disk read's Done, see disk.ReadReq), so a
// step runs in the slot where the thread itself would run it, and the
// callback that drains the queue resumes the thread in place.

import (
	"nwcache/internal/coherence"
	"nwcache/internal/disk"
	"nwcache/internal/optical"
	"nwcache/internal/sim"
	"nwcache/internal/stats"
	"nwcache/internal/vm"
)

// runAhead bounds how many operations a thread queues before it blocks to
// let its CPU run them.
const runAhead = 64

// cpuOp is one queued operation, 16 bytes. It has four fields, so the
// compiler keeps it in registers rather than in memory.
type cpuOp struct {
	arg   int64 // Touch and file I/O: the (next) page; Compute: the cycles; locks: the id
	n     int32 // Touch: the lines (read only by a recording); file I/O: the pages left
	kind  OpKind
	touch struct {
		sub   uint8 // the sub-block
		write bool
	}
}

// event is the operation as a recording captures it.
func (op cpuOp) event() OpEvent {
	ev := OpEvent{Kind: op.kind}
	switch op.kind {
	case OpTouch:
		ev.Page, ev.Sub, ev.Lines, ev.Write = op.arg, int(op.touch.sub), max(int(op.n), 1), op.touch.write
	case OpCompute:
		ev.Cycles = op.arg
	case OpLockAcquire, OpLockRelease:
		ev.Lock = int(op.arg)
	case OpFileRead, OpFileWrite:
		ev.Page, ev.Pages = op.arg, int(op.n)
	}
	return ev
}

// cpuStep is where the operation at the head of the queue resumes.
type cpuStep uint8

const (
	csStart     cpuStep = iota // begin the operation
	csTLB                      // look the page up in the TLB
	csIntr                     // pending interrupts are paid: charge them
	csResident                 // make the page resident
	csLock                     // take the page's entry lock
	csState                    // entry lock held: act on the page's state
	csArrived                  // an in-transit page arrived: charge the wait
	csInFlux                   // a ring entry in flux settled: charge the wait
	csFrame                    // reserve a page frame for a fault
	csRingPass                 // the page streamed off the fiber: cross the buses
	csRingIn                   // a ring fetch is in memory
	csFetch                    // read the page from its disk: send the request
	csFetchCtrl                // the request is at the disk: the controller serves it
	csFetchData                // the page is in the controller: move it to memory
	csDiskIn                   // a disk fetch is in memory
	csFinish                   // install the fetched page
	csData                     // coherent cache check
	csWBuf                     // queue the write in the write buffer
	csCCFinish                 // the coherence transaction's data arrived
	csFence                    // wait for the write buffer to drain (a release)
	csBarrier                  // the barrier let the thread pass
	csAcquire                  // take the application lock
	csPage                     // a file operation's next page
	csSyscall                  // the system call's overhead is paid
	csFileIn                   // the file page is in the kernel buffer
	csSend                     // send the page to its disk
	csBook                     // the page is at the disk node: book the controller
	csAnswer                   // the controller answers ACK or NACK
	csOK                       // NACKed, and the disk's OK arrived: resend
	csPageDone                 // the file page's last transfer is over
	csNext                     // the operation is done
)

// chainState is how Ctx.advance stopped.
type chainState uint8

const (
	chainDrained chainState = iota // the queue is empty
	chainTimed                     // the chain waits; its step is scheduled or queued
)

// cpu is a thread's run-ahead queue and the state of the chain that runs
// it. The queue is allocated by Machine.Run.
type cpu struct {
	ops      []cpuOp // queued operations; ops[next] runs at step at
	next     int
	at       cpuStep
	en       *vm.Entry       // the Touch's page entry
	owner    int             // the Touch's resident page's owner
	st       coherence.State // the block's cache state before a buffered write
	tlb      int64           // TLB cycles (interrupts, a miss) the ending sleep paid
	cat      stats.Category  // what a wait for an in-transit page is charged to
	t0       sim.Time        // when the current wait (lock, frame, transit, fetch, file I/O) began
	reserved bool            // a frame is reserved for the fault in progress
	ringEn   optical.Ref     // a ring fetch's entry; zero for a disk fetch
	victim   bool            // the ring fetch claimed the entry (not a ride-along)
	dirty    bool            // the fetched page is installed dirty
	req      disk.ReadReq    // a disk fetch's read at the controller (faults and FileRead)
	step     func()          // pre-bound c.wake
}

// bind readies the context to run on m's node n.
func (c *Ctx) bind(m *Machine, n *Node) {
	c.m, c.n = m, n
	c.ops, c.step = make([]cpuOp, 0, runAhead), c.wake
	c.req.Done = c.step
}

// push queues one operation, running the queue once it is full. A
// recording Ctx hands the operation to its sink instead.
func (c *Ctx) push(op cpuOp) {
	if c.rec != nil {
		c.rec(op.event())
		return
	}
	c.ops = append(c.ops, op)
	if len(c.ops) == runAhead {
		c.drain()
	}
}

// drain runs the queued operations to completion: inline on the thread
// until the chain first waits, then blocked until the callback of the
// chain that drains the queue resumes the thread. It is the thread's only
// wait.
func (c *Ctx) drain() {
	if c.advance() == chainTimed {
		c.block()
	}
	c.ops, c.next = c.ops[:0], 0
}

// wake is the chain's callback: it runs on, and once the queue has
// drained it resumes the thread as its last action.
func (c *Ctx) wake() {
	if c.advance() == chainDrained {
		c.resume()
		return
	}
	c.since = c.m.E.Now()
}

// payInterrupts sleeps for the pending TLB-shootdown interrupts, which
// the next step charges; it reports whether the chain waits. Callers
// check that some are pending, keeping the common case inline.
func (c *Ctx) payInterrupts() bool {
	c.tlb, c.n.pendingIntr = c.n.pendingIntr, 0
	return c.sleepUntil(c.m.E.Now() + c.tlb)
}

// waits names the steps at which a chain waits on another thread or a
// device; a FileRead's steps are "file-read" only for a FileRead.
var waits = [csNext + 1]string{csFence: "write-buffer fence", csBarrier: "barrier", csAcquire: "lock",
	csOK: "disk OK", csFetch: "file-read", csFetchCtrl: "file-read", csFetchData: "file-read", csFileIn: "file-read"}

// waitingOn names what a stranded thread waits on: the wait its chain is
// parked on, or the run-ahead queue for any other step.
func (c *Ctx) waitingOn() string {
	switch w := waits[c.at]; {
	case c.yield == nil:
		return "start"
	case w == "" || w == "file-read" && c.ops[c.next].kind != OpFileRead:
		return "run-ahead"
	default:
		return w
	}
}

// sleepUntil moves the chain's next step to t. It reports whether the
// step was scheduled, ending the chain until it fires; otherwise the clock
// is already at t (sim.Engine.AdvanceTo) and the chain runs on in place.
func (c *Ctx) sleepUntil(t sim.Time) bool {
	if c.m.E.AdvanceTo(t) {
		return false
	}
	c.m.E.At(t, c.step)
	return true
}

// waitUntil is sleepUntil for a wait that may already be over: a time not
// in the future runs the next step on at once, scheduling nothing.
func (c *Ctx) waitUntil(t sim.Time) bool {
	return t > c.m.E.Now() && c.sleepUntil(t)
}

// advance runs queued operations from step c.at until the queue drains or
// the chain must wait.
//
// A Touch whose page is not resident runs the fault protocol as steps of
// the chain. Frame reservation happens BEFORE any page-table claim is
// made: a fault that stalls in NoFree while holding a claim on a ring
// entry would deadlock against its own node's swap-outs (the frame it
// waits for can only be freed by a swap-out, which may be waiting for the
// channel slot occupied by the very entry the fault claimed). Reserving
// first breaks the cycle; if the world changes while stalled, the
// reservation is returned and the state is re-evaluated. The fault
// charges NoFree, Transit and Fault to the CPU, and the remainder falls
// to Other.
func (c *Ctx) advance() chainState {
	m, n := c.m, c.n
	for c.next < len(c.ops) {
		op := &c.ops[c.next]
		page, sub, write := PageID(op.arg), int(op.touch.sub), op.touch.write
		switch c.at {
		case csStart:
			switch op.kind {
			case OpTouch:
				c.at = csTLB
			case OpCompute:
				c.at = csNext
				if c.sleepUntil(m.E.Now() + op.arg) {
					return chainTimed
				}
				continue
			case OpLockRelease:
				c.at = csFence
				continue
			case OpFileRead, OpFileWrite:
				c.at = csPage
				continue
			default:
				c.at = csIntr
			}
			if n.pendingIntr > 0 && c.payInterrupts() {
				return chainTimed
			}
		case csTLB:
			n.charge(stats.TLB, c.tlb)
			c.tlb, c.at = 0, csResident
			if !n.TLB.Lookup(page) {
				c.tlb = m.Cfg.TLBMissLat
				if c.sleepUntil(m.E.Now() + c.tlb) {
					return chainTimed
				}
			}
		case csIntr:
			n.charge(stats.TLB, c.tlb)
			c.tlb = 0
			switch op.kind {
			case OpBarrier:
				c.at = csFence
			case OpLockAcquire:
				c.at = csAcquire
			default:
				c.at = csSyscall
				if c.sleepUntil(m.E.Now() + m.Cfg.SyscallOverhead) {
					return chainTimed
				}
			}
		case csResident:
			n.charge(stats.TLB, c.tlb)
			c.tlb = 0
			en := m.Table.Get(page)
			if en.State == vm.Resident && en.Lock.Idle() {
				// The common case: taking and releasing the idle entry
				// lock of a resident page would change nothing.
				c.en, c.owner, c.at = en, en.Owner, csData
				continue
			}
			c.en, c.reserved, c.t0, c.at = en, false, m.E.Now(), csLock
			fallthrough
		case csLock:
			// A woken continuation re-checks the lock and re-queues at the
			// back if it was taken again.
			if !c.en.Lock.TryLock() {
				c.en.Lock.WaitThen(c.step)
				return chainTimed
			}
			n.charge(stats.Fault, m.E.Now()-c.t0)
			c.at = csState
			fallthrough
		case csState:
			if c.locked() {
				return chainTimed
			}
		case csArrived:
			n.charge(c.cat, m.E.Now()-c.t0)
			m.Spans.Span(m.cpuTrack(n.ID), "fault.wait", c.t0, m.E.Now(), c.en.Page)
			c.t0, c.at = m.E.Now(), csLock
		case csInFlux:
			n.charge(stats.Transit, m.E.Now()-c.t0)
			c.t0, c.at = m.E.Now(), csLock
		case csFrame:
			if !n.Pool.HasFree() {
				n.Pool.FrameFreed.WaitThen(c.step)
				return chainTimed
			}
			n.Pool.Reserve()
			n.charge(stats.NoFree, m.E.Now()-c.t0)
			c.reserved = true
			c.t0, c.at = m.E.Now(), csLock
		case csRingPass:
			// Cross the local I/O and memory buses. The mesh is never
			// touched — the contention benefit the paper measures.
			stages := append(n.stageBuf[:0],
				sim.Stage{Res: n.IOBus, Occupy: m.pageIOBus, Forward: m.Cfg.HopLatency},
				sim.Stage{Res: n.MemBus, Occupy: m.pageMemBus},
			)
			_, arrive := sim.Pipeline(m.E.Now(), stages)
			n.stageBuf = stages[:0]
			c.at = csRingIn
			if c.waitUntil(arrive) {
				return chainTimed
			}
		case csRingIn:
			now, t0 := m.E.Now(), c.t0
			if c.victim {
				// Tell the responsible I/O node's interface the page must
				// not go to disk; it dequeues the notice and ACKs the
				// swapper (asynchronously).
				dn := m.Layout.NodeFor(page)
				g := m.takeMsg()
				g.kind, g.to, g.en = msgCancel, dn, c.ringEn
				m.E.At(m.Mesh.Transit(now, n.ID, dn, m.Cfg.CtrlMsgLen), g.run)
			}
			n.charge(stats.Fault, now-t0)
			if c.victim {
				m.Spans.Instant(m.cpuTrack(n.ID), "ring.victim", now, page)
			}
			m.hFaultRing.Observe(now - t0)
			m.Spans.Span(m.cpuTrack(n.ID), "fault.ring", t0, now, page)
			// A claimed page is dirty: the disk never got it. A ride-along
			// copy is clean: the disk is receiving an identical copy.
			c.dirty, c.at = c.victim, csFinish
		case csFetch:
			// The request message crosses the mesh to the disk node.
			_, dn := m.DiskFor(page)
			c.at = csFetchCtrl
			if c.waitUntil(m.Mesh.Transit(m.E.Now(), n.ID, dn, m.Cfg.CtrlMsgLen)) {
				return chainTimed
			}
		case csFetchCtrl:
			d, _ := m.DiskFor(page)
			c.req.From, c.req.Page, c.req.Block = n.ID, page, m.Layout.BlockFor(page)
			c.at = csFetchData
			if !d.Read(&c.req) {
				return chainTimed
			}
		case csFetchData:
			// The page crosses the disk node's I/O bus, the mesh and the
			// local memory bus.
			_, dn := m.DiskFor(page)
			stages := append(n.stageBuf[:0], sim.Stage{
				Res: m.Nodes[dn].IOBus, Occupy: m.pageIOBus, Forward: m.Cfg.HopLatency,
			})
			stages = m.Mesh.AppendPathStages(stages, dn, n.ID, m.Cfg.PageSize)
			stages = append(stages, sim.Stage{Res: n.MemBus, Occupy: m.pageMemBus})
			_, arrive := sim.Pipeline(m.E.Now(), stages)
			n.stageBuf = stages[:0]
			c.at = csDiskIn
			if op.kind == OpFileRead {
				c.at = csFileIn
			}
			if c.waitUntil(arrive) {
				return chainTimed
			}
		case csDiskIn:
			now, d := m.E.Now(), m.E.Now()-c.t0
			n.charge(stats.Fault, d)
			m.hFaultDisk.Observe(d)
			m.Spans.Span(m.cpuTrack(n.ID), "fault.disk", c.t0, now, page)
			if outcome := c.req.Outcome; outcome.Hit() {
				n.DiskHits++
				// Table 8 measures the latency of faults served straight
				// from the controller cache; in-flight prefetch waits are
				// partial media waits and are excluded.
				if outcome == disk.HitCache {
					n.FaultHitLat.Add(float64(d))
				}
			} else {
				n.DiskMisses++
			}
			c.dirty, c.at = false, csFinish
		case csFinish:
			en := c.en
			if !en.Lock.TryLock() {
				en.Lock.WaitThen(c.step)
				return chainTimed
			}
			en.State = vm.Resident
			en.Owner = n.ID
			en.RingEntry = optical.Ref{}
			en.Dirty = c.dirty
			n.Pool.AdoptReserved(en.Page)
			en.Arrived.Broadcast()
			en.Lock.Unlock()
			n.Faults++
			if c.ringEn != (optical.Ref{}) {
				// A ride-along's entry may be drained and reused by now:
				// the Ref still names its channel.
				n.RingHits++
				m.Ring.NoteVictim(c.ringEn.Channel())
				c.ringEn = optical.Ref{}
			}
			c.reserved, c.owner, c.at = false, n.ID, csData
		case csData:
			m.Nodes[c.owner].Pool.Touch(page)
			if write {
				c.en.Dirty = true
			}
			// Coherent cache check: a Modified copy satisfies anything, a
			// Shared copy satisfies reads, and a write pending in the
			// write buffer forwards to both; otherwise run the directory
			// protocol.
			c.at = csNext
			switch st := n.CC.State(page, sub); {
			case st == coherence.Modified,
				!write && n.WB != nil && n.WB.holds(page, sub), // read-after-write forwarding
				st == coherence.Shared && !write:
				n.CC.Hits++
			case write && n.WB != nil:
				// Release Consistency: buffer the write and keep
				// executing; writes to an already-pending block coalesce.
				c.st, c.at = st, csWBuf
			default:
				n.CC.Misses++
				if st == coherence.Shared {
					n.CC.Upgrades++
				}
				c.at = csCCFinish
				if c.waitUntil(m.ccStart(n, c.owner, page, sub, write)) {
					return chainTimed
				}
			}
		case csWBuf:
			coalesced, ok := n.WB.tryEnqueue(page, sub)
			if !ok {
				// Full: stall until a drain frees a slot, then retry.
				n.WB.FullWaits++
				n.WB.room.WaitThen(c.step)
				return chainTimed
			}
			if coalesced {
				n.CC.Hits++
			} else {
				n.CC.Misses++
				if c.st == coherence.Shared {
					n.CC.Upgrades++
				}
			}
			c.at = csNext
		case csCCFinish:
			m.ccFinish(n, page, sub, write)
			c.at = csNext
		case csFence:
			// A barrier or a lock release is a release operation: pending
			// buffered writes retire first.
			if wb := n.WB; wb != nil && (wb.count > 0 || wb.inFly) {
				wb.empty.WaitThen(c.step)
				return chainTimed
			}
			if op.kind == OpLockRelease {
				m.Lock(int(op.arg)).Unlock()
				c.at = csNext
				continue
			}
			c.at = csBarrier
			if !m.barrier.ArriveThen(c.step) {
				return chainTimed
			}
		case csBarrier:
			c.at = csNext
		case csAcquire:
			// A woken waiter re-checks the lock, as for an entry lock.
			if l := m.Lock(int(op.arg)); !l.TryLock() {
				l.WaitThen(c.step)
				return chainTimed
			}
			c.at = csNext
		case csPage:
			if op.n <= 0 {
				c.at = csNext
				continue
			}
			c.at = csIntr
			if n.pendingIntr > 0 && c.payInterrupts() {
				return chainTimed
			}
		case csSyscall:
			n.charge(stats.Other, m.Cfg.SyscallOverhead)
			if op.kind == OpFileRead {
				c.t0, c.at = m.E.Now(), csFetch // the disk read of a fault
				continue
			}
			// User buffer -> kernel buffer copy, after which the write
			// itself starts.
			copied := n.MemBus.Reserve(m.E.Now(), m.pageMemBus) + m.pageMemBus
			c.t0, c.at = max(copied, m.E.Now()), csSend
			if c.waitUntil(copied) {
				return chainTimed
			}
		case csFileIn:
			n.charge(stats.Fault, m.E.Now()-c.t0)
			// Kernel buffer -> user buffer copy.
			c.at = csPageDone
			if c.waitUntil(n.MemBus.Reserve(m.E.Now(), m.pageMemBus) + m.pageMemBus) {
				return chainTimed
			}
		case csSend:
			c.at = csBook
			if c.waitUntil(m.sendPage(n, page)) {
				return chainTimed
			}
		case csBook:
			d, _ := m.DiskFor(page)
			c.at = csAnswer
			if c.waitUntil(d.BookWrite()) {
				return chainTimed
			}
		case csAnswer:
			d, dn := m.DiskFor(page)
			if d.AnswerWrite(n.ID, page, m.Layout.BlockFor(page), c.step) == disk.NACK {
				// The controller's OK runs the chain again: resend.
				c.at = csOK
				return chainTimed
			}
			c.at = csPageDone
			if c.waitUntil(m.Mesh.Transit(m.E.Now(), dn, n.ID, m.Cfg.CtrlMsgLen)) {
				return chainTimed
			}
		case csOK:
			c.at = csSend
		case csPageDone:
			if op.kind == OpFileRead {
				n.ExplicitReads++
			} else {
				n.charge(stats.Fault, m.E.Now()-c.t0)
				n.ExplicitWrites++
			}
			op.arg, op.n, c.at = op.arg+1, op.n-1, csPage
		case csNext:
			c.next++
			c.at = csStart
		}
	}
	return chainDrained
}

// locked acts on the Touch's page with its entry lock held, setting the
// next step; it reports whether the chain now waits.
func (c *Ctx) locked() bool {
	m, n, en := c.m, c.n, c.en
	switch en.State {
	case vm.Resident:
		c.owner = en.Owner
		if c.reserved {
			n.Pool.Unreserve()
			c.reserved = false
		}
		en.Lock.Unlock()
		c.at = csData
		return false
	case vm.Transit:
		// The charge category is fixed before the wait: the page may be
		// claimed by another node's fault in the very instant it ends.
		c.cat, c.t0, c.at = transitWait(en), m.E.Now(), csArrived
		en.Lock.Unlock()
		en.Arrived.WaitThen(c.step)
		return true
	}
	// OnRing or Unmapped: a fault is needed. Hold a frame reservation
	// before claiming anything, re-checking the state afterwards (it may
	// have changed while stalled in NoFree).
	if !c.reserved {
		en.Lock.Unlock()
		c.t0, c.at = m.E.Now(), csFrame
		return false
	}
	if en.State == vm.Unmapped {
		// Fetch the page from its disk.
		en.State = vm.Transit
		en.TransitBy = n.ID
		en.Lock.Unlock()
		c.t0, c.at = m.E.Now(), csFetch
		return false
	}
	switch ref := en.RingEntry; ref.State() {
	case optical.OnRing, optical.Draining:
		// OnRing: victim caching — claim the page and snoop it straight
		// off the cache channel, no disk, no mesh page transfer. Draining:
		// the interface is already copying it to the disk cache; ride
		// along the broadcast medium.
		ringEn := ref.Entry()
		c.victim = ringEn.State == optical.OnRing
		if c.victim {
			ringEn.State = optical.Claimed
		}
		en.State = vm.Transit
		en.TransitBy = n.ID
		en.Lock.Unlock()
		c.ringEn, c.t0, c.at = ref, m.E.Now(), csRingPass
		return c.waitUntil(m.Ring.SnoopDone(ringEn, n.ID, m.E.Now()))
	default:
		// Claimed is unobservable under the entry lock; Gone is a copy a
		// crash voided under conservative recovery, whose swap-out is
		// resending it. Wait out the in-flight transition and
		// re-evaluate.
		en.Lock.Unlock()
		c.t0, c.at = m.E.Now(), csInFlux
		en.Arrived.WaitThen(c.step)
		return true
	}
}

// transitWait is what a wait for the in-transit page en is charged to.
// TransitBy >= 0: another node is fetching the page (the paper's Transit
// category). TransitBy < 0: the page is being swapped out; waiting for
// that is fault-path overhead.
func transitWait(en *vm.Entry) stats.Category {
	if en.TransitBy < 0 {
		return stats.Fault
	}
	return stats.Transit
}
