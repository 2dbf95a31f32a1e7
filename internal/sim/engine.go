// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains virtual time in processor cycles (pcycles, 5 ns in
// the default NWCache configuration) and dispatches events in (time,
// sequence number) order, so that simulations are fully reproducible:
// events scheduled for the same instant fire in scheduling order.
//
// Every actor is a chain of callbacks: a step scheduled with At/After
// runs, and it waits by handing its next step to the engine or to a
// primitive — a Cond, Semaphore, Mutex or Barrier (WaitThen, ArriveThen)
// or a Server (AcquireThen) — which schedules that step at the instant
// the wait ends. Exactly one callback runs at any instant, so no data
// shared through the engine needs locking and results are deterministic.
//
// A chain whose next step would be the very next event anyway can skip
// scheduling it altogether: AdvanceTo moves the clock there and the chain
// runs on in place.
//
// The dispatch core is built for throughput (see MODEL.md, "Engine fast
// path"): event slots are pooled and recycled, future events live in an
// inlined 4-ary heap, and dispatch is batched per instant — advancing the
// clock drains every heap event bearing the new timestamp into a FIFO
// ready queue in one pass, so the per-event path is a ready-queue pop that
// never touches the heap, and events scheduled for the current instant
// (the hand-off storm of the synchronization primitives) join the
// same queue directly. Optional per-run machinery (the tick hook, the
// progress probe) is checked against sentinel values (a next-tick of
// MaxInt64, a next probe check of MaxUint64 dispatched events) chosen
// once when the feature is (un)installed, so a disabled feature costs one
// always-false compare in the hot loop rather than a branch chain. None
// of this changes the dispatch order: every event still fires in strict
// (time, seq) order.
package sim

import (
	"fmt"
	"math"

	"nwcache/internal/obs"
)

// Time is virtual simulation time in pcycles.
type Time = int64

// event is one scheduled occurrence. Slots are pooled: once an event
// fires its slot returns to the free list. Nothing outside the engine
// refers to a slot, so a recycled slot has no stale holder.
type event struct {
	t   Time
	seq uint64
	fn  func()
}

// never is the sentinel next-tick boundary while no tick hook is
// installed: time can never reach it, so the disabled hook costs one
// always-false compare per time advance (not per event).
const never = Time(math.MaxInt64)

// detached is the sentinel next probe check while no progress probe is
// attached: Dispatched can never reach it, so the detached probe costs
// one always-false compare per event.
const detached = ^uint64(0)

// Engine is a discrete-event simulator instance.
type Engine struct {
	now Time
	seq uint64

	heap      []*event // 4-ary min-heap of future events, ordered by (t, seq)
	ready     []*event // FIFO of events at the current instant, in seq order
	readyHead int
	free      []*event // recycled event slots
	pending   int      // scheduled events not yet fired

	// Dispatch statistics, maintained unconditionally: plain integer
	// bumps on already-written cache lines, far below the noise floor of
	// the ~18 ns dispatch. Exposed to the obs layer as pull-based probes.
	dispatched uint64 // events fired
	heapPeak   int    // high-water mark of the future-event heap
	inline     uint64 // steps AdvanceTo ran in place (counted in dispatched too)

	// Clock-boundary tick hook (SetTick): tickFn fires whenever dispatch
	// crosses a multiple of tickEvery. The hook lives outside the event
	// queues on purpose — it consumes no sequence numbers and schedules
	// nothing, so installing it cannot perturb dispatch order, and the
	// clock never advances past the last real event. Disabled, nextTick
	// is the `never` sentinel and the hook costs nothing on the per-event
	// path (the boundary check lives on the time-advance path).
	tickEvery Time
	nextTick  Time
	tickFn    func(now Time)

	// Progress probe (AttachProgress): once Dispatched reaches
	// nextProbe, dispatch publishes the clock into progress and honors a
	// pending abort request — the watchdog's only way into the engine,
	// and the only way a run ends early. Detached, nextProbe is the
	// `detached` sentinel. abort carries a landed abort from the check
	// to Run's teardown; while it is set, dispatch stops after the
	// current event and AdvanceTo refuses.
	probeEvery uint64
	nextProbe  uint64
	progress   *Progress
	abort      *AbortError
}

// New returns an empty engine at time 0.
func New() *Engine {
	return &Engine{
		nextTick:  never,
		nextProbe: detached,
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// eventChunk is how many event slots are allocated at once when the free
// list runs dry; steady-state scheduling then allocates nothing.
const eventChunk = 64

// alloc takes an event slot from the pool and stamps it with the next
// sequence number.
func (e *Engine) alloc(t Time, fn func()) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		// The popped slot is deliberately not nilled out of the backing
		// array: slots are immortal (they cycle queue -> free forever), so
		// the stale reference costs nothing, and skipping the store avoids
		// a GC write barrier on every allocation.
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		chunk := make([]event, eventChunk)
		for i := 1; i < eventChunk; i++ {
			e.free = append(e.free, &chunk[i])
		}
		ev = &chunk[0]
	}
	e.seq++
	ev.t = t
	ev.seq = e.seq
	ev.fn = fn
	return ev
}

// release returns a slot to the pool. The fn reference is deliberately
// left for the slot's next alloc to overwrite: the retention is bounded
// (one stale closure per pooled slot), and skipping the store keeps a GC
// write barrier off the per-event path.
func (e *Engine) release(ev *event) {
	e.free = append(e.free, ev)
}

// schedule queues an event, routing same-instant events through the ready
// FIFO and future events through the heap. Dispatch order is identical
// either way: ready entries all carry t == now and ascending seq, and
// popNext merges the two sources by (t, seq).
func (e *Engine) schedule(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	ev := e.alloc(t, fn)
	e.pending++
	if t == e.now {
		e.ready = append(e.ready, ev)
	} else {
		e.heapPush(ev)
	}
}

// heapPush inserts ev into the 4-ary heap.
func (e *Engine) heapPush(ev *event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		pe := h[parent]
		if pe.t < ev.t || (pe.t == ev.t && pe.seq < ev.seq) {
			break
		}
		h[i] = pe
		i = parent
	}
	h[i] = ev
	e.heap = h
	if len(h) > e.heapPeak {
		e.heapPeak = len(h)
	}
}

// heapPop removes and returns the minimum-(t, seq) event.
func (e *Engine) heapPop() *event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n] // stale slot reference beyond len is harmless: slots are pooled forever
	if n > 0 {
		i := 0
		for {
			child := i<<2 + 1
			if child >= n {
				break
			}
			end := child + 4
			if end > n {
				end = n
			}
			m := child
			me := h[child]
			for c := child + 1; c < end; c++ {
				ce := h[c]
				if ce.t < me.t || (ce.t == me.t && ce.seq < me.seq) {
					m, me = c, ce
				}
			}
			if last.t < me.t || (last.t == me.t && last.seq < me.seq) {
				break
			}
			h[i] = me
			i = m
		}
		h[i] = last
	}
	e.heap = h
	return top
}

// nextInstant advances the clock to the earliest future timestamp, fires
// any tick boundaries crossed on the way, drains every other heap event
// bearing that timestamp into the ready FIFO in one pass, and returns the
// first event of the new instant. Returns nil when the heap is empty.
//
// The drain preserves global (t, seq) order: repeated heap pops at equal t
// yield ascending seq, and every event scheduled *during* the instant
// carries a later seq than all of them (heap entries at t were, by
// construction, scheduled before the clock reached t) and is appended to
// the same FIFO by schedule. So once an instant begins, dispatch is a pure
// FIFO pop — the heap and the tick boundary are only ever touched here,
// once per distinct timestamp.
func (e *Engine) nextInstant() *event {
	if len(e.heap) == 0 {
		return nil
	}
	t := e.heap[0].t
	e.ready = e.ready[:0]
	e.readyHead = 0
	if t < e.now {
		panic("sim: event queue returned event in the past")
	}
	e.setClock(t)
	first := e.heapPop()
	for len(e.heap) > 0 && e.heap[0].t == t {
		e.ready = append(e.ready, e.heapPop())
	}
	return first
}

// setClock moves the clock forward to t. Both dispatch paths use it:
// nextInstant before the first event of an instant, and AdvanceTo before
// an inline step. It is small enough to inline; crossing a tick boundary
// takes the out-of-line crossTicks.
func (e *Engine) setClock(t Time) {
	if t >= e.nextTick {
		e.crossTicks(t)
	}
	e.now = t
}

// crossTicks fires the tick hook at each tick boundary up to t, with
// the clock set to the boundary, so samples carry regular timestamps
// and probes reading Now() see boundary time. The pending event has
// t >= every boundary crossed, so the clock stays monotone. It stays
// out of line so that setClock inlines into both dispatch paths.
//
//go:noinline
func (e *Engine) crossTicks(t Time) {
	for t >= e.nextTick {
		e.now = e.nextTick
		e.tickFn(e.nextTick)
		e.nextTick += e.tickEvery
	}
}

// probe is the progress check, taken once every probeEvery dispatched
// events: it publishes the clock for the watchdog and lands a pending
// abort. Like the tick hook it consumes no sequence numbers and
// schedules nothing, so dispatch order is untouched; the event just
// counted still runs, then dispatch stops. It stays out of line, like
// crossTicks, so the per-event path holds only the compare.
//
//go:noinline
func (e *Engine) probe() {
	e.nextProbe += e.probeEvery
	p := e.progress
	p.now.Store(e.now)
	if p.abort.Load() {
		e.abort = &AbortError{Now: e.now, Dispatched: e.dispatched, Reason: p.abortReason()}
	}
}

// AdvanceTo runs a step due at t in place of scheduling it: when the step
// would be the very next event dispatched anyway, it moves the clock to t
// (crossing tick boundaries exactly as dispatch would), counts the step
// as one dispatched event (taking the progress check when the count is
// due one), and returns true; the caller then runs the step at once.
// Otherwise it changes nothing and returns false, and the caller
// schedules the step with At.
//
// The step at t is next when the ready FIFO is empty (nothing else is due
// now), every heap event is strictly later than t (a heap event at t was
// scheduled earlier, so its smaller sequence number fires it first), and
// no abort has landed. Under those conditions an inline advance and At(t)
// dispatch the same events in the same order at the same times, with the
// same Dispatched count at every point, and an abort lands at the same
// count either way; only the heap push and pop, the sequence number and
// the callback are saved.
func (e *Engine) AdvanceTo(t Time) bool {
	if e.readyHead < len(e.ready) || e.abort != nil ||
		(len(e.heap) > 0 && e.heap[0].t <= t) || t < e.now {
		return false
	}
	// Pending counts the step while tick hooks run, as it would count
	// the scheduled event.
	e.pending++
	e.setClock(t)
	e.pending--
	e.dispatched++
	e.inline++
	if e.dispatched >= e.nextProbe {
		e.probe()
	}
	return true
}

// drive is the dispatch loop: it fires events in (t, seq) order until
// the queues drain or an abort lands.
func (e *Engine) drive() {
	for e.abort == nil {
		var ev *event
		if e.readyHead < len(e.ready) {
			ev = e.ready[e.readyHead]
			if e.readyHead++; e.readyHead == len(e.ready) {
				// Drained: restart, so a same-instant chain reuses one slot.
				e.ready, e.readyHead = e.ready[:0], 0
			}
		} else if ev = e.nextInstant(); ev == nil {
			return
		}
		e.pending--
		e.dispatched++
		if e.dispatched >= e.nextProbe {
			e.probe()
		}
		// Recycle before acting: an event firing right now can schedule
		// into this slot's next life.
		fn := ev.fn
		e.release(ev)
		fn()
	}
}

// At schedules fn to run at absolute time t. Scheduling in the past is a
// programming error and panics, as it would silently corrupt causality.
// A scheduled event always fires: an actor that changes its mind checks
// its own state when the step runs.
func (e *Engine) At(t Time, fn func()) { e.schedule(t, fn) }

// After schedules fn to run d pcycles from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) { e.schedule(e.now+d, fn) }

// Pending reports the number of scheduled events that have not fired.
func (e *Engine) Pending() int { return e.pending }

// Dispatched reports how many events have fired since the engine was
// created.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// InlineAdvances reports how many steps AdvanceTo ran in place of an
// event; each is also counted in Dispatched.
func (e *Engine) InlineAdvances() uint64 { return e.inline }

// Observe registers the engine's dispatch statistics as pull-based
// probes under sc (conventionally the "sim" scope). Probes are evaluated
// only at snapshot time, so observation adds no per-event work.
func (e *Engine) Observe(sc *obs.Scope) {
	sc.ProbeCounter("events_dispatched", func() int64 { return int64(e.dispatched) })
	sc.ProbeGauge("heap_peak", func() int64 { return int64(e.heapPeak) })
	sc.ProbeCounter("inline_advances", func() int64 { return int64(e.inline) })
	sc.ProbeGauge("events_pending", func() int64 { return int64(e.pending) })
	sc.ProbeGauge("now_pcycles", func() int64 { return e.now })
}

// SetTick installs fn as the engine's clock-boundary hook: it is invoked
// with the boundary time whenever dispatch crosses a multiple of d
// pcycles (the first boundary is the first multiple of d after the
// current time). The hook is observation-only machinery — it is not an
// event: it consumes no sequence numbers, cannot reorder dispatch, and
// fires only while real events remain, so the virtual clock never
// advances beyond the simulation's own work. fn must not schedule events
// or mutate simulation state; it is intended for telemetry sampling
// (obs.Sampler). d <= 0 or a nil fn uninstalls the hook.
func (e *Engine) SetTick(d Time, fn func(now Time)) {
	if d <= 0 || fn == nil {
		e.tickEvery, e.nextTick, e.tickFn = 0, never, nil
		return
	}
	e.tickEvery = d
	e.nextTick = (e.now/d + 1) * d
	e.tickFn = fn
}

// Run executes events in order until the queues drain, and then returns
// nil. Steps left waiting on a primitive when the queues drain are not an
// error to the engine: their owners decide whether they were stranded.
// If a supervisor's abort request (AttachProgress) lands, Run discards
// every remaining event, detaches the probe and returns the
// *AbortError; until the next Run, AdvanceTo refuses.
func (e *Engine) Run() error {
	e.abort = nil
	e.drive()
	if e.abort == nil {
		return nil
	}
	e.AttachProgress(nil)
	e.clearPending()
	return e.abort
}

// KillParked does nothing: the engine runs callbacks only, so no process
// is ever left parked. It remains for the benchmark harness, which calls
// it on machines it built but never ran.
func (e *Engine) KillParked() {}

// clearPending discards every event still queued.
func (e *Engine) clearPending() {
	for e.readyHead < len(e.ready) {
		e.release(e.ready[e.readyHead])
		e.ready[e.readyHead] = nil
		e.readyHead++
	}
	e.ready = e.ready[:0]
	e.readyHead = 0
	for i, ev := range e.heap {
		e.release(ev)
		e.heap[i] = nil
	}
	e.heap = e.heap[:0]
	e.pending = 0
}
