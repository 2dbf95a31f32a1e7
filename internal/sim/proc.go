//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// procKilled is the sentinel panic value used to unwind a killed process.
type procKilled struct{ name string }

// Proc is a cooperative simulation process. A Proc runs as a runtime
// coroutine (iter.Pull) and only while the engine has explicitly resumed
// it; it must yield (by sleeping or blocking) to let simulation time
// advance. All Proc methods must be called from the Proc's own body.
//
// Proc shells (struct and coroutine) are pooled: when a body returns, the
// shell parks on Engine.procPool and its coroutine suspends awaiting the
// next spawn, so steady-state process churn (naive prefetching spawns a
// short-lived process per read-ahead) allocates nothing. Recycling never
// perturbs dispatch order: spawn consumes exactly the same two sequence
// numbers (process id, start event) whether the shell is fresh or pooled.
type Proc struct {
	e         *Engine
	id        uint64
	name      string
	daemon    bool
	resume    func() (struct{}, bool) // switch into the coroutine until it suspends
	stop      func()                  // retire the coroutine (KillParked)
	suspend   func(struct{}) bool     // switch back to whoever resumed us
	body      func(*Proc)             // current life's body; nil between lives
	killed    bool
	parkedIdx int    // index in Engine.parkedList, -1 when not parked
	waitOn    string // label of the primitive currently parked on
	parkedAt  Time   // when the current park began
}

// Spawn starts fn as a new process at the current simulation time. The
// process body runs when the engine reaches the start event. When fn
// returns, the process ends.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, false, fn)
}

// SpawnDaemon starts a process that is allowed to be parked forever when
// the simulation ends (e.g. servers waiting for requests that will never
// come). Daemons do not trigger DeadlockError.
func (e *Engine) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, true, fn)
}

func (e *Engine) spawn(name string, daemon bool, fn func(p *Proc)) *Proc {
	e.seq++
	var p *Proc
	if k := len(e.procPool); k > 0 {
		p = e.procPool[k-1]
		e.procPool[k-1] = nil
		e.procPool = e.procPool[:k-1]
	} else {
		p = &Proc{e: e}
		p.resume, p.stop = iter.Pull(p.loop)
	}
	p.id = e.seq
	p.name = name
	p.daemon = daemon
	p.killed = false
	p.parkedIdx = -1
	p.body = fn
	e.schedule(e.now, evStart, nil, p)
	return p
}

// loop is a proc shell's coroutine body: one iteration per life, entered
// by the first resume (the start event, or a kill of a never-started
// proc). Between lives the coroutine suspends with the shell sitting in
// Engine.procPool; KillParked retires it with stop at teardown, so
// abandoned engines leak nothing.
func (p *Proc) loop(suspend func(struct{}) bool) {
	p.suspend = suspend
	for {
		p.run()
		if !suspend(struct{}{}) {
			return
		}
	}
}

// recycle parks the shell on the spawn pool for its next life. Must run
// while this coroutine holds control, so pool access is race-free.
func (p *Proc) recycle() {
	p.body = nil
	p.e.procPool = append(p.e.procPool, p)
}

// run executes one life of the process body and hands the shell back to
// the pool. The shell is recycled *before* the completion dispatch below:
// an event dispatched there may respawn this very shell, in which case
// drive names it in handTo and transfer resumes it into its next life.
func (p *Proc) run() {
	defer func() {
		r := recover()
		if _, killed := r.(procKilled); r != nil && !killed {
			panic(r) // real bug: propagates out of Run
		}
		p.e.current = nil
		p.recycle()
		if r == nil {
			// Normal completion: keep dispatching until another proc is
			// named or the queues drain. A killed proc instead suspends
			// straight back to KillParked, which resumes whatever its
			// unwinding defers made runnable.
			p.e.drive(nil)
		}
	}()
	if p.killed {
		// Start event discarded (livelock teardown): unwind without ever
		// running the body.
		panic(procKilled{p.name})
	}
	p.body(p)
}

// yield relinquishes the processor but keeps driving the dispatch loop in
// this coroutine until control comes back (see Engine.drive). If the
// process was killed while parked, yield panics with procKilled to unwind
// the process body (running defers).
func (p *Proc) yield() {
	if !p.e.drive(p) {
		// Another proc is named in handTo, or the queues drained: either
		// way the transfer loop takes over until we are resumed.
		p.suspend(struct{}{})
	}
	if p.killed {
		panic(procKilled{p.name})
	}
}

// Name returns the process name (for diagnostics).
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current simulation time.
func (p *Proc) Now() Time { return p.e.now }

// isParked reports whether p is blocked on a primitive with no wake-up
// event pending. Killed procs are never parked.
func (p *Proc) isParked() bool { return p.parkedIdx >= 0 }

// Sleep suspends the process for d pcycles. d must be >= 0.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s: Sleep(%d) negative", p.name, d))
	}
	p.e.schedule(p.e.now+d, evWake, nil, p)
	p.yield()
}

// SleepUntil suspends the process until absolute time t (no-op if t <= now).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.e.now {
		return
	}
	p.Sleep(t - p.e.now)
}

// Park blocks the process with no wake-up event scheduled until another
// actor wakes it: a synchronization primitive's Signal (unpark), or a
// callback's Engine.Resume. `on` labels the wait for the blocked-proc dump
// of DeadlockError/LivelockError.
func (p *Proc) Park(on string) {
	p.waitOn = on
	p.parkedAt = p.e.now
	p.e.addParked(p)
	p.yield()
}

// unpark schedules p to resume at the current time. Must only be called for
// a parked process.
func (e *Engine) unpark(p *Proc) {
	if p.parkedIdx < 0 {
		panic("sim: unpark of non-parked process " + p.name)
	}
	e.removeParked(p)
	e.schedule(e.now, evWake, nil, p)
}
