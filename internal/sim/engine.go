// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains virtual time in processor cycles (pcycles, 5 ns in
// the default NWCache configuration) and dispatches events in (time,
// sequence number) order, so that simulations are fully reproducible:
// events scheduled for the same instant fire in scheduling order.
//
// Two execution styles are supported and freely mixed:
//
//   - plain callbacks scheduled with At/After, which can also wait on a
//     Cond, Semaphore or Mutex (WaitThen) wherever a process would; and
//   - cooperative processes (Proc) — runtime coroutines (iter.Pull) that
//     own the engine while they run and suspend whenever they Sleep or
//     block on a synchronization primitive. Control passes between them
//     by coroutine switch, never through the Go scheduler, and exactly
//     one of them (or Run's caller) runs at any instant, so no data
//     shared through the engine needs locking and results are
//     deterministic.
//
// The two meet in a process that Parks while a callback chain does its
// work: a callback hands the process a step that must block, or the end
// of the chain, with Resume, which runs the process at the callback's own
// (time, seq) slot without scheduling anything.
//
// The dispatch core is built for throughput (see MODEL.md, "Engine fast
// path"): event slots are pooled and recycled, future events live in an
// inlined 4-ary heap, and dispatch is batched per instant — advancing the
// clock drains every heap event bearing the new timestamp into a FIFO
// ready queue in one pass, so the per-event path is a ready-queue pop that
// never touches the heap, and events scheduled for the current instant
// (the unpark/transfer storm of the synchronization primitives) join the
// same queue directly. Optional per-run machinery (the tick hook, the
// livelock guard) is checked against sentinel values (a next-tick of
// MaxInt64, an event budget of MaxUint64) chosen once when the feature is
// (un)installed, so a disabled feature costs one always-false compare in
// the hot loop rather than a branch chain. None of this changes the
// dispatch order: every event still fires in strict (time, seq) order.
package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"nwcache/internal/obs"
)

// Time is virtual simulation time in pcycles.
type Time = int64

// eventKind tags what firing an event does, so the common wake-ups carry a
// *Proc directly instead of allocating a func() closure per occurrence.
type eventKind uint8

const (
	evFunc  eventKind = iota // run fn()
	evWake                   // hand control to proc p (Sleep wake-up, unpark)
	evStart                  // first hand-over to a freshly spawned proc
)

// event is one scheduled occurrence. Slots are pooled: after an event
// fires (or a canceled slot is drained) the slot returns to the free list
// with gen incremented, so stale Event handles can never affect the slot's
// next occupant.
type event struct {
	t        Time
	seq      uint64
	gen      uint32
	kind     eventKind
	canceled bool
	fn       func()
	p        *Proc
}

// Event is a handle to a scheduled callback, usable for cancellation. The
// zero Event is inert. Handles stay valid (as no-ops) after the event
// fires, even once the underlying slot has been recycled.
type Event struct {
	ev  *event
	gen uint32
}

// never is the sentinel next-tick boundary while no tick hook is
// installed: time can never reach it, so the disabled hook costs one
// always-false compare per time advance (not per event).
const never = Time(math.MaxInt64)

// noLimit is the sentinel event budget while the livelock guard is
// disarmed: Dispatched can never reach it, so the disabled guard costs one
// always-false compare per event.
const noLimit = ^uint64(0)

// Engine is a discrete-event simulator instance.
type Engine struct {
	now     Time
	seq     uint64
	stopped bool
	stopAt  uint64 // livelock event budget; noLimit when disarmed
	tripped bool   // budget was hit during the current Run

	heap      []*event // 4-ary min-heap of future events, ordered by (t, seq)
	ready     []*event // FIFO of events at the current instant, in seq order
	readyHead int
	free      []*event // recycled event slots
	pending   int      // scheduled events not yet fired or canceled

	// process bookkeeping
	parkedList []*Proc // procs blocked on a primitive (no event pending)
	current    *Proc   // proc currently holding control, nil in callbacks
	handTo     *Proc   // proc the transfer loop resumes next, nil when none
	inCallback bool    // a callback event is running (Resume is legal)
	resumed    *Proc   // proc the running callback Resumed, nil when none
	procPool   []*Proc // finished proc shells whose coroutines await reuse

	// Dispatch statistics, maintained unconditionally: plain integer
	// bumps on already-written cache lines, far below the noise floor of
	// the ~18 ns dispatch. Exposed to the obs layer as pull-based probes.
	dispatched uint64 // events fired
	wakes      uint64 // proc hand-overs/resumes among the dispatched
	switches   uint64 // wakes that resumed a proc other than the driver
	heapPeak   int    // high-water mark of the future-event heap

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

	// Progress probe (AttachProgress): at each probe boundary crossed,
	// dispatch publishes the clock into progress and honors a pending
	// abort request — the watchdog's only way into the engine. Detached,
	// nextProbe is the `never` sentinel (same cost class as the tick
	// boundary). aborted carries the abort reason from the boundary
	// check to Run's teardown.
	probeEvery Time
	nextProbe  Time
	progress   *Progress
	aborted    string
}

// New returns an empty engine at time 0.
func New() *Engine {
	return &Engine{
		stopAt:    noLimit,
		nextTick:  never,
		nextProbe: never,
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// eventChunk is how many event slots are allocated at once when the free
// list runs dry; steady-state scheduling then allocates nothing.
const eventChunk = 64

// alloc takes an event slot from the pool and stamps it with the next
// sequence number.
func (e *Engine) alloc(t Time, kind eventKind, fn func(), p *Proc) *event {
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
	ev.kind = kind
	ev.canceled = false
	ev.fn = fn
	ev.p = p
	return ev
}

// release returns a slot to the pool. The generation bump invalidates
// every outstanding handle to the slot's previous life. The fn and p
// references are deliberately left for the slot's next alloc to
// overwrite: the retention is bounded (one stale closure per pooled
// slot, and Proc shells are pooled on the engine anyway), and skipping
// the stores keeps GC write barriers off the per-event path.
func (e *Engine) release(ev *event) {
	ev.gen++
	e.free = append(e.free, ev)
}

// schedule queues an event, routing same-instant events through the ready
// FIFO and future events through the heap. Dispatch order is identical
// either way: ready entries all carry t == now and ascending seq, and
// popNext merges the two sources by (t, seq).
func (e *Engine) schedule(t Time, kind eventKind, fn func(), p *Proc) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	ev := e.alloc(t, kind, fn, p)
	e.pending++
	if t == e.now {
		e.ready = append(e.ready, ev)
	} else {
		e.heapPush(ev)
	}
	return ev
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
	if t >= e.nextTick {
		// Crossing one or more tick boundaries: advance the clock to
		// each boundary and fire the hook there, so samples carry
		// regular timestamps and probes reading Now() see boundary time.
		// The pending event has t >= every boundary crossed, so the
		// clock stays monotone.
		for t >= e.nextTick {
			e.now = e.nextTick
			e.tickFn(e.nextTick)
			e.nextTick += e.tickEvery
		}
	}
	e.now = t
	if t >= e.nextProbe {
		// Probe boundary: publish the clock for the watchdog and honor
		// a pending abort. Like the tick hook this consumes no sequence
		// numbers and schedules nothing, so dispatch order is untouched;
		// an abort finishes the event nextInstant returns, then stops
		// (the same finish-then-stop semantics as the livelock guard).
		for t >= e.nextProbe {
			e.nextProbe += e.probeEvery
		}
		e.progress.now.Store(t)
		if e.progress.abortRequested() {
			e.aborted = e.progress.abortReason()
			e.tripped = true
			e.stopped = true
		}
	}
	first := e.heapPop()
	for len(e.heap) > 0 && e.heap[0].t == t {
		e.ready = append(e.ready, e.heapPop())
	}
	return first
}

// drive is the dispatch loop, executed by whichever coroutine currently
// owns the engine (the driver migrates: Run's caller starts as driver,
// and every yielding or finishing proc keeps dispatching until another
// proc must run). owner is the proc doing the driving, or nil for Run's
// caller and for a proc whose body already returned.
//
// Callback events run inline on the driver — harmless, since exactly one
// coroutine runs at any instant either way. When owner's own wake event
// comes up, drive returns true and the owner proceeds without any switch
// at all (the common case for a proc whose sleep expires with no
// intervening work). A wake for any other proc is recorded in handTo and
// drive returns false, as it does when the queues drain or Stop is seen
// (handTo stays nil); the driver then suspends and transfer resumes the
// named proc, if any.
func (e *Engine) drive(owner *Proc) bool {
	for !e.stopped {
		var ev *event
		if e.readyHead < len(e.ready) {
			ev = e.ready[e.readyHead]
			if e.readyHead++; e.readyHead == len(e.ready) {
				// Drained: restart, so a same-instant chain reuses one slot.
				e.ready, e.readyHead = e.ready[:0], 0
			}
		} else if ev = e.nextInstant(); ev == nil {
			return false
		}
		if ev.canceled {
			e.release(ev)
			continue
		}
		e.pending--
		e.dispatched++
		if e.dispatched >= e.stopAt {
			// Livelock guard: the event budget is exhausted. Finish this
			// event, then stop; Run turns the trip into a LivelockError.
			// Disarm the budget so teardown dispatch cannot re-trip.
			e.tripped = true
			e.stopped = true
			e.stopAt = noLimit
		}
		// Recycle before acting: an event firing right now can schedule
		// into (and a canceled handle can never reach) this slot's next
		// life.
		kind, fn, p := ev.kind, ev.fn, ev.p
		e.release(ev)
		if kind == evFunc {
			e.current = nil
			e.inCallback = true
			fn()
			e.inCallback = false
			if p = e.resumed; p == nil {
				continue
			}
			e.resumed = nil
		}
		// A wake, a start, or a proc the callback just run Resumed.
		e.wakes++
		e.current = p
		if p == owner {
			return true
		}
		e.switches++
		e.handTo = p
		return false
	}
	return false
}

// Resume hands control to the parked process p as soon as the running
// callback returns, ahead of every other event. p runs in the callback's
// own (t, seq) slot: Resume schedules no event, so it consumes no sequence
// number and leaves Dispatched and Pending alone. A callback chain uses it
// to run a step that must block (wait on a Cond, Mutex, ...) on a process
// parked for the purpose (see MODEL.md, "Engine fast path"). Resume panics
// outside a callback, when called twice in one callback, and for a process
// that is not parked.
func (e *Engine) Resume(p *Proc) {
	switch {
	case !e.inCallback:
		panic("sim: Resume outside a callback")
	case e.resumed != nil:
		panic("sim: second Resume in one callback")
	case !p.isParked():
		panic("sim: Resume of non-parked process " + p.name)
	}
	e.removeParked(p)
	e.resumed = p
}

// At schedules fn to run at absolute time t. Scheduling in the past is a
// programming error and panics, as it would silently corrupt causality.
func (e *Engine) At(t Time, fn func()) Event {
	ev := e.schedule(t, evFunc, fn, nil)
	return Event{ev, ev.gen}
}

// After schedules fn to run d pcycles from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) Event {
	return e.At(e.now+d, fn)
}

// Cancel prevents a scheduled event from firing. Canceling an event that
// already fired (or was already canceled) is a no-op, even if the event's
// pooled slot has since been reused for a different event.
func (e *Engine) Cancel(ev Event) {
	iev := ev.ev
	if iev == nil || iev.gen != ev.gen || iev.canceled {
		return
	}
	iev.canceled = true
	e.pending--
	// The slot stays queued and is recycled when dispatch drains it.
}

// Pending reports the number of scheduled events that have neither fired
// nor been canceled.
func (e *Engine) Pending() int { return e.pending }

// Dispatched reports how many events have fired since the engine was
// created.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// WakeHandoffs reports how many process hand-overs dispatch made: the
// dispatched events that were Sleep wake-ups, unparks or starts rather than
// callbacks, plus the Resumes callbacks made.
func (e *Engine) WakeHandoffs() uint64 { return e.wakes }

// Switches reports how many wake hand-overs cost a coroutine switch: the
// woken process was not the one driving dispatch (Run's caller and a
// process whose body returned count as none, so every start switches).
func (e *Engine) Switches() uint64 { return e.switches }

// HeapPeak reports the high-water mark of the future-event heap.
func (e *Engine) HeapPeak() int { return e.heapPeak }

// Observe registers the engine's dispatch statistics as pull-based
// probes under sc (conventionally the "sim" scope). Probes are evaluated
// only at snapshot time, so observation adds no per-event work.
func (e *Engine) Observe(sc *obs.Scope) {
	sc.ProbeCounter("events_dispatched", func() int64 { return int64(e.dispatched) })
	sc.ProbeCounter("wake_handoffs", func() int64 { return int64(e.wakes) })
	sc.ProbeCounter("switches", func() int64 { return int64(e.switches) })
	sc.ProbeGauge("heap_peak", func() int64 { return int64(e.heapPeak) })
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

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// SetEventLimit arms the livelock guard: if a single Run dispatches n or
// more events, it aborts with a *LivelockError instead of spinning
// forever. 0 (the default) disables the guard. The budget counts against
// the engine's lifetime Dispatched() total, so set it relative to the
// current count when re-running an engine.
func (e *Engine) SetEventLimit(n uint64) {
	if n == 0 {
		e.stopAt = noLimit
		return
	}
	e.stopAt = n
}

// BlockedProc is one process stuck on a synchronization primitive in a
// DeadlockError or LivelockError diagnostic dump.
type BlockedProc struct {
	Name  string // process name
	On    string // what it is blocked on (primitive label)
	Since Time   // when it parked
}

func (b BlockedProc) String() string {
	return fmt.Sprintf("%s blocked on %s since t=%d", b.Name, b.On, b.Since)
}

// DeadlockError reports processes left parked with no pending events: they
// can never run again.
type DeadlockError struct {
	Now           Time
	Procs         []string      // names of parked, non-daemon processes
	Blocked       []BlockedProc // structured dump of the same processes
	DaemonsParked int           // parked daemons (normal at shutdown)
}

func (d *DeadlockError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sim: deadlock at t=%d: %d process(es) parked forever",
		d.Now, len(d.Procs))
	for _, b := range d.Blocked {
		fmt.Fprintf(&sb, "\n  %s", b)
	}
	if len(d.Blocked) == 0 {
		fmt.Fprintf(&sb, ": %v", d.Procs)
	}
	if d.DaemonsParked > 0 {
		fmt.Fprintf(&sb, "\n  (+%d parked daemon(s), normal at shutdown)", d.DaemonsParked)
	}
	return sb.String()
}

// LivelockError reports a Run aborted by the SetEventLimit guard: the
// event graph kept scheduling work without ever draining.
type LivelockError struct {
	Now        Time
	Dispatched uint64        // lifetime events fired when the guard tripped
	Blocked    []BlockedProc // processes parked at the moment of the trip
}

func (l *LivelockError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sim: livelock guard tripped at t=%d after %d events", l.Now, l.Dispatched)
	for _, b := range l.Blocked {
		fmt.Fprintf(&sb, "\n  %s", b)
	}
	return sb.String()
}

// blockedProcs snapshots the parked list: a name-sorted structured dump of
// the non-daemon processes plus a count of parked daemons.
func (e *Engine) blockedProcs() (blocked []BlockedProc, daemons int) {
	for _, p := range e.parkedList {
		if p.daemon {
			daemons++
			continue
		}
		blocked = append(blocked, BlockedProc{Name: p.name, On: p.waitOn, Since: p.parkedAt})
	}
	sort.Slice(blocked, func(i, j int) bool { return blocked[i].Name < blocked[j].Name })
	return blocked, daemons
}

// Run executes events in order until the queues drain or Stop is called.
// If they drain while non-daemon processes are parked on synchronization
// primitives, Run kills all parked processes and returns a *DeadlockError
// naming the non-daemon ones (with a structured blocked-proc dump). Daemon
// processes parked at drain time are considered normal and are killed
// silently. If an event limit is armed (SetEventLimit) and the budget is
// exhausted, Run discards the remaining events, kills every process, and
// returns a *LivelockError.
func (e *Engine) Run() error {
	e.stopped = false
	e.tripped = false
	e.aborted = ""
	e.drive(nil)
	e.transfer()
	if e.tripped {
		if e.aborted != "" {
			return e.abortTeardown()
		}
		return e.livelockTeardown()
	}
	if e.stopped {
		// Halted explicitly: leave remaining events and parked processes in
		// place so the caller can resume with another Run.
		return nil
	}
	return e.finishDrained()
}

// livelockTeardown turns a tripped event budget into a *LivelockError and
// unwinds the engine completely.
func (e *Engine) livelockTeardown() error {
	blocked, _ := e.blockedProcs()
	lerr := &LivelockError{Now: e.now, Dispatched: e.dispatched, Blocked: blocked}
	// Teardown: drop the still-growing event storm (re-parking procs
	// whose wakes are discarded), then unwind everything without a
	// budget — KillParked must be able to finish.
	e.stopAt = noLimit
	e.tripped = false
	e.clearPending()
	e.KillParked()
	return lerr
}

// transfer runs on Run's (or KillParked's) caller: it resumes each proc
// that drive names in handTo, until a proc suspends with none named (the
// queues drained, or Stop was seen). Every hand-off is a coroutine switch
// out to this loop and another back in, bypassing the Go scheduler, and
// the call stack never deepens however long the chain of hand-offs.
func (e *Engine) transfer() {
	for p := e.handTo; p != nil; p = e.handTo {
		e.handTo = nil
		p.resume()
	}
}

// finishDrained is Run's drain-time tail: report parked non-daemon
// processes as a deadlock and unwind everything.
func (e *Engine) finishDrained() error {
	blocked, daemons := e.blockedProcs()
	e.KillParked()
	if len(blocked) > 0 {
		stuck := make([]string, len(blocked))
		for i, b := range blocked {
			stuck[i] = b.Name
		}
		return &DeadlockError{Now: e.now, Procs: stuck, Blocked: blocked, DaemonsParked: daemons}
	}
	return nil
}

// clearPending discards every event still queued. A process whose wake or
// start event is discarded is re-registered as parked so KillParked can
// unwind its coroutine; without that, it would stay suspended forever
// awaiting a hand-over that never comes.
func (e *Engine) clearPending() {
	drop := func(ev *event) {
		if !ev.canceled {
			e.pending--
			if ev.p != nil {
				if ev.kind == evStart {
					// Never started: the coroutine awaits its first
					// hand-over, before the kill protocol's unwind path
					// exists. Flag it so it recycles instead of running
					// its body (see loop).
					ev.p.killed = true
				}
				ev.p.waitOn = "discarded event"
				ev.p.parkedAt = e.now
				e.addParked(ev.p)
			}
		}
		e.release(ev)
	}
	for e.readyHead < len(e.ready) {
		drop(e.ready[e.readyHead])
		e.ready[e.readyHead] = nil
		e.readyHead++
	}
	e.ready = e.ready[:0]
	e.readyHead = 0
	for i, ev := range e.heap {
		drop(ev)
		e.heap[i] = nil
	}
	e.heap = e.heap[:0]
}

// addParked records p as parked (blocked with no wake-up event pending).
func (e *Engine) addParked(p *Proc) {
	p.parkedIdx = len(e.parkedList)
	e.parkedList = append(e.parkedList, p)
}

// removeParked unregisters a parked proc in O(1).
func (e *Engine) removeParked(p *Proc) {
	last := len(e.parkedList) - 1
	q := e.parkedList[last]
	e.parkedList[p.parkedIdx] = q
	q.parkedIdx = p.parkedIdx
	e.parkedList[last] = nil
	e.parkedList = e.parkedList[:last]
	p.parkedIdx = -1
}

// KillParked terminates every parked process (daemons included) so that no
// coroutines leak when a simulation is abandoned. Killing a process runs its
// defers, which may unpark other processes (e.g. by releasing a semaphore);
// those are resumed to quiescence before the next victim is killed, so
// teardown is orderly and complete. Finished-process shells recycled
// through the spawn pool are retired last, so their idle coroutines do not
// outlive the simulation either. Safe to call repeatedly.
func (e *Engine) KillParked() {
	e.stopped = false // teardown always drains what remains
	for {
		// Resume anything runnable (events scheduled by defers of already
		// killed processes) until the queues are quiet again.
		e.drive(nil)
		e.transfer()
		if len(e.parkedList) == 0 {
			break
		}
		// Kill the oldest parked process for determinism.
		victim := e.parkedList[0]
		for _, p := range e.parkedList[1:] {
			if p.id < victim.id {
				victim = p
			}
		}
		e.removeParked(victim)
		victim.killed = true
		e.current = victim
		victim.resume() // unwinds the body, then suspends again
		e.current = nil
	}
	for k := len(e.procPool); k > 0; k = len(e.procPool) {
		p := e.procPool[k-1]
		e.procPool[k-1] = nil
		e.procPool = e.procPool[:k-1]
		p.stop()
	}
}
