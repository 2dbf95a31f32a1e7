package optical

import (
	"nwcache/internal/fault"
	"nwcache/internal/obs"
	"nwcache/internal/sim"
)

// chanFIFO is one cache channel's queue of swap-out notices, in original
// swap-out order. A notice is a Ref: it can outlive its entry (a victim
// read's Cancel may overtake the notify message), and then reads as Gone.
// The queue is head-indexed: popping advances head instead of reslicing,
// so the backing array's capacity is kept and the steady-state
// enqueue/pop churn never allocates. The buffer compacts (resets to its
// start) whenever it empties.
type chanFIFO struct {
	q    []Ref
	head int
}

func (f *chanFIFO) len() int { return len(f.q) - f.head }

func (f *chanFIFO) push(ref Ref) { f.q = append(f.q, ref) }

func (f *chanFIFO) front() Ref { return f.q[f.head] }

func (f *chanFIFO) pop() {
	f.head++
	if f.head == len(f.q) {
		f.q = f.q[:0]
		f.head = 0
	}
}

// unpop restores the most recently popped entry at the FRONT of the queue
// (retry after a lost slot race). The popped slot at q[head-1] survives
// unless the pop compacted the queue; in that case ref is shifted in ahead
// of anything that arrived since.
func (f *chanFIFO) unpop(ref Ref) {
	if f.head > 0 {
		f.head--
		f.q[f.head] = ref
		return
	}
	f.q = append(f.q, Ref{})
	copy(f.q[1:], f.q)
	f.q[0] = ref
}

// remove drops the first occurrence of ref, preserving order.
func (f *chanFIFO) remove(ref Ref) bool {
	for i := f.head; i < len(f.q); i++ {
		if f.q[i] == ref {
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

	// The drain chain: the step to resume at and its pre-bound
	// continuation, the round-robin cursor, the channel being drained and
	// the page being copied.
	at   drainStep
	step func()
	rr   int
	ch   int
	cur  Ref
	t0   sim.Time

	// DrainPolicy selects which channel to drain next; default MostLoaded.
	Policy DrainPolicy

	// Injected by the machine layer.
	DiskHasRoom func() bool
	// DiskBook books the disk controller for a drained page arriving now
	// and returns when the controller answers; DiskInstall, called then,
	// copies the page into the controller cache and returns false if the
	// controller rejected it after all (slot raced away), in which case
	// the notice is retried.
	DiskBook    func() sim.Time
	DiskInstall func(page PageID) bool
	// SendACK delivers the ACK for a page that left the ring to the node
	// that swapped it out (the entry's Channel).
	SendACK func(ref Ref)

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

// NewIface creates the interface and starts its drain chain.
func NewIface(e *sim.Engine, ring *Ring, node int) *Iface {
	f := &Iface{
		e:     e,
		ring:  ring,
		node:  node,
		fifos: make([]chanFIFO, ring.Channels()),
		kick:  sim.NewCond(e),
	}
	f.step = f.drain
	e.At(e.Now(), f.step)
	return f
}

// Notify enqueues a swap-out notice: "page P from node N is on channel N,
// write it to your disk eventually" (invoked at message arrival time). The
// notice is queued even if its entry has left the ring since (the drain
// skips it then).
func (f *Iface) Notify(ref Ref) {
	f.fifos[ref.Channel()].push(ref)
	f.kick.Signal()
}

// Kick re-evaluates drain opportunities (call when disk room appears).
func (f *Iface) Kick() { f.kick.Signal() }

// Cancel handles a victim-read notification: the page was re-mapped to
// memory straight from the ring, so it must not be written to disk. The
// notice is dropped from its FIFO and the ACK is sent to the swapper.
// The caller (fault path) has already Claimed the entry.
func (f *Iface) Cancel(ref Ref) {
	f.fifos[ref.Channel()].remove(ref)
	f.Canceled++
	f.SendACK(ref)
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

// drainStep is where the drain chain resumes.
type drainStep uint8

const (
	drIdle   drainStep = iota // wait for notices and disk room, pick a channel
	drNext                    // copy the channel's next page, if any
	drPassed                  // the page streamed past: check for corruption
	drAnswer                  // the controller answers the copy
)

// drain is the interface's drain chain: whenever the disk controller has
// room, pick a channel and copy as many of its pages as possible, in
// swap-out order, before considering another channel. It is a callback
// chain started at construction, resumed through f.step at step f.at.
func (f *Iface) drain() {
	for {
		switch f.at {
		case drIdle:
			if f.Pending() == 0 || !f.DiskHasRoom() {
				f.kick.WaitThen(f.step)
				return
			}
			if f.ch = f.pickChannel(&f.rr); f.ch < 0 {
				continue
			}
			f.Batches++
			f.at = drNext
		case drNext:
			// Exhaust this channel's swap-outs before switching (paper
			// §3.2 property b), as long as the disk keeps providing room.
			q := &f.fifos[f.ch]
			if q.len() == 0 || !f.DiskHasRoom() {
				f.at = drIdle
				continue
			}
			ref := q.front()
			q.pop()
			if ref.State() != OnRing {
				// Claimed by a victim read (Cancel will drop it) or
				// already gone; skip past it.
				continue
			}
			en := ref.Entry()
			en.State = Draining
			f.cur, f.t0 = ref, f.e.Now()
			// Wait for the page to circulate past this interface and
			// stream it off the fiber. The disk is plugged directly into
			// the NWCache interface, so the copy bypasses the node's
			// memory and I/O buses entirely.
			f.at = drPassed
			if f.waitUntil(f.ring.SnoopDone(en, f.node, f.e.Now())) {
				return
			}
		case drPassed:
			// Injected fiber corruption detected at extraction: the page
			// still circulates (a delay line has no partial reads), so
			// the "retransmit from the home node" costs exactly one more
			// pass.
			if f.flt.DrainCorrupted() {
				if f.waitUntil(f.ring.SnoopDone(f.cur.Entry(), f.node, f.e.Now())) {
					return
				}
				continue
			}
			f.at = drAnswer
			if f.waitUntil(f.DiskBook()) {
				return
			}
		case drAnswer:
			ref := f.cur
			en := ref.Entry()
			f.cur = Ref{}
			f.at = drNext
			if !f.DiskInstall(en.Page) {
				// Lost the slot race; put the notice back and retry.
				en.State = OnRing
				f.fifos[f.ch].unpop(ref)
				continue
			}
			f.Drained++
			f.ring.NoteDrain(en.Channel)
			f.tr.Span(f.track, "ring.drain", f.t0, f.e.Now(), en.Page)
			f.SendACK(ref)
		}
	}
}

// waitUntil schedules the drain chain's next step at t and reports true,
// or reports false when t is not in the future and the step runs on now.
func (f *Iface) waitUntil(t sim.Time) bool {
	if t <= f.e.Now() {
		return false
	}
	f.e.At(t, f.step)
	return true
}
