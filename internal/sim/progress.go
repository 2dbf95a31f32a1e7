package sim

import (
	"fmt"
	"sync/atomic"
)

// DefaultProbeEvery is the probe interval applied when a Progress is
// attached with Every == 0: one check per 4,096 dispatched events —
// frequent enough that a watchdog sees fresh timestamps, and an abort
// lands, within about a millisecond of host time, rare enough that the
// two atomic operations per check are far below the dispatch noise
// floor.
const DefaultProbeEvery uint64 = 4096

// Progress is a cross-goroutine window into a running engine, the
// channel between a cell simulating on a worker goroutine and the
// watchdog supervising it from outside (guard.CellGuard).
//
// The engine publishes its clock into the Progress once every Every
// dispatched events (inline AdvanceTo steps included) and checks the
// abort flag at the same count. Counting events rather than simulated
// time means a run whose clock is stuck still reaches the check, so
// even a same-instant livelock can be aborted. Everything else about
// the engine remains single-goroutine: the probe is the only
// engine-side state a supervisor may touch, and only through SimNow
// and RequestAbort.
//
// Like the tick hook, the probe consumes no sequence numbers and
// schedules nothing, so attaching it cannot perturb dispatch order —
// and while detached the engine pays the one always-false compare per
// event that it pays anyway (the `detached` sentinel).
type Progress struct {
	// Every is the probe interval in dispatched events; 0 means
	// DefaultProbeEvery. Set before AttachProgress.
	Every uint64

	now    atomic.Int64
	abort  atomic.Bool
	reason atomic.Pointer[string]
}

// SimNow returns the latest simulated timestamp the engine published.
// Safe from any goroutine.
func (p *Progress) SimNow() int64 { return p.now.Load() }

// RequestAbort asks the engine to abandon the run at its next probe
// check; Run then discards every remaining event and returns an
// *AbortError carrying the reason. Safe from any goroutine; the first
// reason wins.
func (p *Progress) RequestAbort(reason string) {
	r := reason
	p.reason.CompareAndSwap(nil, &r)
	p.abort.Store(true)
}

func (p *Progress) abortReason() string {
	if r := p.reason.Load(); r != nil {
		return *r
	}
	return "abort requested"
}

// AbortError reports a Run abandoned at a probe check on a
// supervisor's request (Progress.RequestAbort): the watchdog decided
// the cell was over budget or stalled, and the engine discarded its
// remaining events.
type AbortError struct {
	Now        Time
	Dispatched uint64 // lifetime events fired when the abort landed
	Reason     string // the supervisor's reason ("timeout", "stalled", ...)
}

func (a *AbortError) Error() string {
	return fmt.Sprintf("sim: run aborted (%s) at t=%d after %d events", a.Reason, a.Now, a.Dispatched)
}

// AttachProgress installs p as the engine's progress probe: dispatch
// publishes the clock into p once every p.Every dispatched events and
// honors RequestAbort at the same checks. A nil p detaches the probe,
// restoring the `detached` sentinel.
func (e *Engine) AttachProgress(p *Progress) {
	if p == nil {
		e.probeEvery, e.nextProbe, e.progress = 0, detached, nil
		return
	}
	every := p.Every
	if every == 0 {
		every = DefaultProbeEvery
	}
	e.probeEvery = every
	e.nextProbe = e.dispatched + every
	e.progress = p
	p.now.Store(e.now)
}
