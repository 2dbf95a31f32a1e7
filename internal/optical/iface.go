package optical

import (
	"nwcache/internal/fault"
	"nwcache/internal/obs"
	"nwcache/internal/sim"
)

// chanFIFO is one cache channel's queue of swap-out notices, in original
// swap-out order. It is head-indexed: popping advances head instead of
// reslicing, so the backing array's capacity is kept and the steady-state
// enqueue/pop churn never allocates. The buffer compacts (resets to its
// start) whenever it empties.
type chanFIFO struct {
	q    []*Entry
	head int
}

func (f *chanFIFO) len() int { return len(f.q) - f.head }

func (f *chanFIFO) push(en *Entry) { f.q = append(f.q, en) }

func (f *chanFIFO) front() *Entry { return f.q[f.head] }

func (f *chanFIFO) pop() {
	f.head++
	if f.head == len(f.q) {
		f.q = f.q[:0]
		f.head = 0
	}
}

// unpop restores the most recently popped entry at the FRONT of the queue
// (retry after a lost slot race). The popped slot at q[head-1] survives
// unless the pop compacted the queue; in that case en is shifted in ahead
// of anything that arrived since.
func (f *chanFIFO) unpop(en *Entry) {
	if f.head > 0 {
		f.head--
		f.q[f.head] = en
		return
	}
	f.q = append(f.q, nil)
	copy(f.q[1:], f.q)
	f.q[0] = en
}

// remove drops the first occurrence of en, preserving order.
func (f *chanFIFO) remove(en *Entry) bool {
	for i := f.head; i < len(f.q); i++ {
		if f.q[i] == en {
			copy(f.q[i:], f.q[i+1:])
			f.q = f.q[:len(f.q)-1]
			if f.head == len(f.q) {
				f.q = f.q[:0]
				f.head = 0
			}
			return true
		}
	}
	return false
}

// Iface is the NWCache interface of one I/O-enabled node: it keeps one
// FIFO queue per cache channel and, whenever the attached disk controller
// has room, snoops the most heavily loaded channel, copying pages in their
// original swap-out order until that channel's swap-outs are exhausted —
// the two properties (§3.2) that increase write locality in the disk
// cache.
type Iface struct {
	e    *sim.Engine
	ring *Ring
	node int // the I/O node this interface is plugged into

	fifos []chanFIFO // per channel, FIFO
	kick  *sim.Cond

	// DrainPolicy selects which channel to drain next; default MostLoaded.
	Policy DrainPolicy

	// Injected by the machine layer.
	DiskHasRoom func() bool
	// DiskInstall copies a drained page into the disk controller cache in
	// p's context (paying controller overhead and media scheduling);
	// returns false if the controller rejected it after all (slot raced
	// away), in which case the notice is retried.
	DiskInstall func(p *sim.Proc, page PageID) bool
	// SendACK delivers the ACK for a page that left the ring to the node
	// that swapped it out (entry.Channel).
	SendACK func(en *Entry)

	// Statistics.
	Drained  uint64
	Canceled uint64
	Batches  uint64

	// Span tracing (nil when disabled): each successful drain becomes a
	// "ring.drain" span on tr's track.
	tr    *obs.Trace
	track int

	// Fault injection (nil = perfect fiber): per-drain corruption checks.
	flt *fault.Injector
}

// DrainPolicy selects the next channel to drain.
type DrainPolicy int

// Drain policies. MostLoaded is the paper's; RoundRobin exists for the
// ablation study.
const (
	MostLoaded DrainPolicy = iota
	RoundRobin
)

// NewIface creates the interface and starts its drain daemon.
func NewIface(e *sim.Engine, ring *Ring, node int) *Iface {
	f := &Iface{
		e:     e,
		ring:  ring,
		node:  node,
		fifos: make([]chanFIFO, ring.Channels()),
		kick:  sim.NewCond(e).Named("nwc-iface.kick"),
	}
	e.SpawnDaemon("nwc-iface", f.drainLoop)
	return f
}

// Notify enqueues a swap-out notice: "page P from node N is on channel N,
// write it to your disk eventually" (invoked at message arrival time).
func (f *Iface) Notify(en *Entry) {
	f.fifos[en.Channel].push(en)
	f.kick.Signal()
}

// Kick re-evaluates drain opportunities (call when disk room appears).
func (f *Iface) Kick() { f.kick.Signal() }

// Cancel handles a victim-read notification: the page was re-mapped to
// memory straight from the ring, so it must not be written to disk. The
// notice is dropped from its FIFO and the ACK is sent to the swapper.
// The caller (fault path) has already Claimed the entry.
func (f *Iface) Cancel(en *Entry) {
	f.fifos[en.Channel].remove(en)
	f.Canceled++
	f.SendACK(en)
}

// Observe wires the interface's drain statistics into an obs scope as
// pull-based probes. No-op on a nil scope.
func (f *Iface) Observe(sc *obs.Scope) {
	if sc == nil {
		return
	}
	sc.ProbeCounter("drained", func() int64 { return int64(f.Drained) })
	sc.ProbeCounter("canceled", func() int64 { return int64(f.Canceled) })
	sc.ProbeCounter("batches", func() int64 { return int64(f.Batches) })
	sc.ProbeGauge("pending", func() int64 { return int64(f.Pending()) })
}

// SetTrace routes drain spans onto track of tr (nil disables).
func (f *Iface) SetTrace(tr *obs.Trace, track int) {
	f.tr, f.track = tr, track
}

// SetFaults attaches a fault injector (nil restores perfect fiber).
func (f *Iface) SetFaults(inj *fault.Injector) { f.flt = inj }

// PendingOn returns the FIFO depth for a channel.
func (f *Iface) PendingOn(ch int) int { return f.fifos[ch].len() }

// Pending returns the total queued notices.
func (f *Iface) Pending() int {
	t := 0
	for i := range f.fifos {
		t += f.fifos[i].len()
	}
	return t
}

// pickChannel returns the channel to drain next, or -1 if none pending.
func (f *Iface) pickChannel(rr *int) int {
	switch f.Policy {
	case RoundRobin:
		for k := 0; k < len(f.fifos); k++ {
			ch := (*rr + k) % len(f.fifos)
			if f.fifos[ch].len() > 0 {
				*rr = (ch + 1) % len(f.fifos)
				return ch
			}
		}
		return -1
	default: // MostLoaded
		best, bestLen := -1, 0
		for ch := range f.fifos {
			if n := f.fifos[ch].len(); n > bestLen {
				best, bestLen = ch, n
			}
		}
		return best
	}
}

// drainLoop is the interface's main daemon: whenever the disk controller
// has room, pick a channel and copy as many of its pages as possible, in
// swap-out order, before considering another channel.
func (f *Iface) drainLoop(p *sim.Proc) {
	rr := 0
	for {
		if f.Pending() == 0 || !f.DiskHasRoom() {
			f.kick.Wait(p)
			continue
		}
		ch := f.pickChannel(&rr)
		if ch < 0 {
			continue
		}
		f.Batches++
		// Exhaust this channel's swap-outs before switching (paper §3.2
		// property b), as long as the disk keeps providing room.
		for f.fifos[ch].len() > 0 && f.DiskHasRoom() {
			en := f.fifos[ch].front()
			if en.State != OnRing {
				// Claimed by a victim read (Cancel will drop it) or
				// already gone; skip past it.
				f.fifos[ch].pop()
				continue
			}
			en.State = Draining
			f.fifos[ch].pop()
			t0 := p.Now()
			// Wait for the page to circulate past this interface and
			// stream it off the fiber. The disk is plugged directly into
			// the NWCache interface, so the copy bypasses the node's
			// memory and I/O buses entirely.
			f.ring.Snoop(p, en, f.node)
			// Injected fiber corruption detected at extraction: the page
			// still circulates (a delay line has no partial reads), so the
			// "retransmit from the home node" costs exactly one more pass.
			for f.flt.DrainCorrupted() {
				f.ring.Snoop(p, en, f.node)
			}
			if !f.DiskInstall(p, en.Page) {
				// Lost the slot race; put the notice back and retry.
				en.State = OnRing
				f.fifos[ch].unpop(en)
				continue
			}
			f.Drained++
			f.ring.NoteDrain(en.Channel)
			f.tr.Span(f.track, "ring.drain", t0, p.Now(), en.Page)
			f.SendACK(en)
		}
	}
}
