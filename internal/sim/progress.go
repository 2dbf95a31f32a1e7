package sim

import (
	"fmt"
	"sync/atomic"
)

// DefaultProbeEvery is the probe interval applied when a Progress is
// attached with Every == 0: one boundary per 1M pcycles (5 ms of
// simulated time in the default configuration) — frequent enough that
// a watchdog sees fresh timestamps many times per second of host
// time, rare enough that the two atomic operations per boundary are
// far below the dispatch noise floor.
const DefaultProbeEvery = Time(1_000_000)

// Progress is a cross-goroutine window into a running engine, the
// channel between a cell simulating on a worker goroutine and the
// watchdog supervising it from outside (guard.CellGuard).
//
// The engine publishes its clock into the Progress at every probe
// boundary (each multiple of Every pcycles crossed by dispatch) and
// checks the abort flag at the same boundary. Everything else about
// the engine remains single-goroutine: the probe is the only
// engine-side state a supervisor may touch, and only through SimNow
// and RequestAbort.
//
// Like the tick hook and the livelock guard, the probe consumes no
// sequence numbers and schedules nothing, so attaching it cannot
// perturb dispatch order — and while detached the engine pays one
// always-false compare per distinct timestamp (the `never` sentinel
// pattern).
type Progress struct {
	// Every is the probe interval in pcycles; 0 means
	// DefaultProbeEvery. Set before AttachProgress.
	Every Time

	now    atomic.Int64
	abort  atomic.Bool
	reason atomic.Pointer[string]
}

// SimNow returns the latest simulated timestamp the engine published.
// Safe from any goroutine.
func (p *Progress) SimNow() int64 { return p.now.Load() }

// RequestAbort asks the engine to abandon the run at its next probe
// boundary; Run then discards every remaining event and returns an
// *AbortError carrying the reason. Safe from any goroutine; the first
// reason wins.
func (p *Progress) RequestAbort(reason string) {
	r := reason
	p.reason.CompareAndSwap(nil, &r)
	p.abort.Store(true)
}

// abortRequested is the engine-side check at a probe boundary.
func (p *Progress) abortRequested() bool { return p.abort.Load() }

func (p *Progress) abortReason() string {
	if r := p.reason.Load(); r != nil {
		return *r
	}
	return "abort requested"
}

// AbortError reports a Run abandoned at a probe boundary on a
// supervisor's request (Progress.RequestAbort): the watchdog decided
// the cell was over budget or stalled, and the engine discarded its
// remaining events — the same teardown as the livelock guard's.
type AbortError struct {
	Now        Time
	Dispatched uint64 // lifetime events fired when the abort landed
	Reason     string // the supervisor's reason ("timeout", "stalled", ...)
}

func (a *AbortError) Error() string {
	return fmt.Sprintf("sim: run aborted (%s) at t=%d after %d events", a.Reason, a.Now, a.Dispatched)
}

// AttachProgress installs p as the engine's progress probe: dispatch
// publishes the clock into p at every multiple of p.Every pcycles and
// honors RequestAbort at the same boundaries. A nil p detaches the
// probe, restoring the `never` sentinel.
func (e *Engine) AttachProgress(p *Progress) {
	if p == nil {
		e.probeEvery, e.nextProbe, e.progress = 0, never, nil
		return
	}
	every := p.Every
	if every <= 0 {
		every = DefaultProbeEvery
	}
	e.probeEvery = every
	e.nextProbe = (e.now/every + 1) * every
	e.progress = p
	p.now.Store(e.now)
}
