package machine

// A thread's Touch and Compute operations run as a chain of engine
// callbacks fed by a bounded run-ahead queue (see Ctx, and MODEL.md,
// "Engine fast path"). A step that must block runs on the thread's
// process, which the chain wakes with sim.Engine.Resume.

import (
	"nwcache/internal/coherence"
	"nwcache/internal/sim"
	"nwcache/internal/stats"
	"nwcache/internal/vm"
)

// runAhead bounds how many Touch/Compute operations a thread queues before
// it parks to let its CPU run them.
const runAhead = 64

// cpuOp is one queued Touch or Compute.
type cpuOp struct {
	arg     int64 // Touch: the page; Compute: the cycles
	sub     int32
	compute bool
	write   bool
}

// cpuStep is where the operation at the head of the queue resumes.
type cpuStep uint8

const (
	csStart    cpuStep = iota // begin the operation
	csTLB                     // look the page up in the TLB
	csResident                // make the page resident
	csArrived                 // an in-transit page arrived: charge the wait
	csLocked                  // fault the page in, entry lock held
	csData                    // coherent cache check
	csWBuf                    // queue the write in the write buffer
	csCCFinish                // the coherence transaction's data arrived
	csNext                    // the operation is done
)

// chainState is how Ctx.advance stopped.
type chainState uint8

const (
	chainDrained chainState = iota // the queue is empty
	chainTimed                     // the chain waits; its step is scheduled or queued
	chainBlocked                   // the step at c.at must block: run it on the process
)

// cpu is a thread's run-ahead queue and the state of the chain that runs
// it. The queue is allocated by Machine.Run.
type cpu struct {
	ops   []cpuOp // queued operations; ops[next] runs at step at
	next  int
	at    cpuStep
	en    *vm.Entry       // the Touch's page entry
	owner int             // the Touch's resident page's owner
	st    coherence.State // the block's cache state before a buffered write
	tlb   int64           // TLB cycles (interrupts, a miss) the ending sleep paid
	cat   stats.Category  // what a wait for an in-transit page is charged to
	t0    sim.Time        // when that wait began
	step  func()          // pre-bound c.wake
}

// push queues one operation, running the queue once it is full.
func (c *Ctx) push(op cpuOp) {
	c.ops = append(c.ops, op)
	if len(c.ops) == runAhead {
		c.drain()
	}
}

// drain runs the queued operations to completion on the thread's process:
// inline until the chain sleeps, then parked until a callback resumes the
// process with the queue drained or a step to block in.
func (c *Ctx) drain() {
	for c.advance(c.p) != chainDrained {
		c.p.Park("run-ahead")
		if c.next == len(c.ops) {
			break
		}
	}
	c.ops, c.next = c.ops[:0], 0
}

// wake is the chain's callback: it runs on, and resumes the process when
// the queue has drained or a step must block.
func (c *Ctx) wake() {
	if c.advance(nil) != chainTimed {
		c.m.E.Resume(c.p)
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

// advance runs queued operations from step c.at until the queue drains or
// the chain must wait. p is the thread's process when advance runs on it,
// and nil in a callback, where a step that must block stops the chain
// with chainBlocked instead (the process then re-runs the step).
func (c *Ctx) advance(p *sim.Proc) chainState {
	m, n := c.m, c.n
	for c.next < len(c.ops) {
		op := &c.ops[c.next]
		page, sub, write := PageID(op.arg), int(op.sub), op.write
		switch c.at {
		case csStart:
			if op.compute {
				c.at = csNext
				if c.sleepUntil(m.E.Now() + op.arg) {
					return chainTimed
				}
				continue
			}
			c.at = csTLB
			if d := n.pendingIntr; d > 0 {
				n.pendingIntr, c.tlb = 0, d
				if c.sleepUntil(m.E.Now() + d) {
					return chainTimed
				}
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
		case csResident:
			n.charge(stats.TLB, c.tlb)
			c.tlb = 0
			// The common case, an idle lock on a resident page, runs here,
			// and so does a wait for a page in transit; the fault protocol
			// runs on the process, where it can block. A failed TryLock
			// changes nothing, so the process re-runs this step against
			// the same state.
			c.en = m.Table.Get(page)
			switch {
			case !c.en.Lock.TryLock():
				if p == nil {
					return chainBlocked
				}
				c.owner = m.ensureResident(p, n, c.en)
			case c.en.State == vm.Transit:
				// As ensureResidentLocked's Transit case, with the charge
				// category fixed before the wait: the continuation queues
				// where the process would, and wakes in the same slot.
				c.cat, c.t0, c.at = transitWait(c.en), m.E.Now(), csArrived
				c.en.Lock.Unlock()
				c.en.Arrived.WaitThen(c.step)
				return chainTimed
			case c.en.State != vm.Resident:
				c.at = csLocked
				if p == nil {
					return chainBlocked
				}
				c.owner = m.ensureResidentLocked(p, n, c.en)
			default:
				c.owner = c.en.Owner
				c.en.Lock.Unlock()
			}
			c.at = csData
		case csArrived:
			n.charge(c.cat, m.E.Now()-c.t0)
			m.Spans.Span(m.cpuTrack(n.ID), "fault.wait", c.t0, m.E.Now(), c.en.Page)
			c.at = csResident
		case csLocked:
			c.owner = m.ensureResidentLocked(p, n, c.en)
			c.at = csData
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
				if t := m.ccStart(n, c.owner, page, sub, write); t > m.E.Now() && c.sleepUntil(t) {
					return chainTimed
				}
			}
		case csWBuf:
			coalesced, ok := n.WB.tryEnqueue(page, sub)
			if !ok {
				if p == nil {
					return chainBlocked
				}
				coalesced = n.WB.enqueue(p, page, sub)
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
		case csNext:
			c.next++
			c.at = csStart
		}
	}
	return chainDrained
}
