package disk

import (
	"nwcache/internal/fault"
	"nwcache/internal/sim"
)

// armSched is the disk mechanism's scheduler. The paper's base system
// serializes media accesses FCFS (a reservation Resource); the
// read-priority variant (an ablation) queues them on a two-class Server
// that serves demand reads before background write-backs.
type armSched struct {
	fcfs *sim.Resource // nil under read priority
	prio *sim.Server   // nil under FCFS
}

// BusyTime returns cumulative service time.
func (a armSched) BusyTime() int64 {
	if a.prio != nil {
		return a.prio.Busy
	}
	return a.fcfs.Busy
}

// idle reports whether the mechanism is free at now.
func (a armSched) idle(now sim.Time) bool {
	if a.prio != nil {
		return a.prio.Idle()
	}
	return a.fcfs.FreeAt() <= now
}

// reserveThen books r for dur pcycles from now and reports whether the
// service already ended (dur 0 on an idle resource); otherwise k is
// scheduled at the end of service.
func reserveThen(e *sim.Engine, r *sim.Resource, dur int64, k func()) bool {
	end := r.Reserve(e.Now(), dur) + dur
	if end <= e.Now() {
		return true
	}
	e.At(end, k)
	return false
}

// mediaStep is where a mechanism access resumes.
type mediaStep uint8

const (
	maArm    mediaStep = iota // queue for the mechanism
	maHeld                    // read priority: the arm is ours, start service
	maServed                  // read priority: service over, release the arm
	maDone                    // service over: check for an injected error
)

// mediaOp is one mechanism access in flight, a continuation that each job
// needing the arm embeds (a demand read, a prefetch fill, the write-back
// and the DCD destage). With a fault injector it applies the active
// degraded-mode latency multiplier and the transient-error protocol: on
// an injected error the controller retries with exponential backoff up to
// the plan's budget, then gives up (the stale data ages in place; a later
// pass rewrites it).
type mediaOp struct {
	d       *Disk
	flt     *fault.Injector // nil: a plain access (and the destage's)
	pri     sim.Priority
	dur     int64
	read    bool
	attempt int
	retries int
	backoff int64
	at      mediaStep
	k       func() // the owning job's step, run when the access is over
	step    func() // pre-bound resume
}

// bind ties the op to its disk and the owning job's continuation k; the
// op's own step is bound once, so rebinding allocates nothing.
func (o *mediaOp) bind(d *Disk, k func()) {
	o.d, o.k = d, k
	if o.step == nil {
		o.step = func() {
			if o.advance() {
				o.k()
			}
		}
	}
}

// start begins one access of dur pcycles, with the fault protocol when
// faults is set, and reports whether it ended at once; otherwise the
// owning job's continuation runs when it is over.
func (o *mediaOp) start(pri sim.Priority, dur int64, read, faults bool) bool {
	o.pri, o.dur, o.read, o.attempt, o.at = pri, dur, read, 0, maArm
	o.flt = nil
	if faults && o.d.flt != nil {
		o.flt = o.d.flt
		o.dur *= o.flt.DegradeMult(o.d.fltID, o.d.e.Now())
		o.retries, o.backoff = o.flt.RetrySpec(read)
	}
	return o.advance()
}

// advance runs the access until it must wait (false) or is over (true).
func (o *mediaOp) advance() bool {
	e, arm := o.d.e, o.d.arm
	for {
		switch o.at {
		case maArm:
			if arm.prio == nil {
				o.at = maDone
				if !reserveThen(e, arm.fcfs, o.dur, o.step) {
					return false
				}
				continue
			}
			o.at = maHeld
			if !arm.prio.AcquireThen(o.pri, o.step) {
				return false
			}
		case maHeld:
			o.at = maServed
			e.At(e.Now()+o.dur, o.step)
			return false
		case maServed:
			arm.prio.Release()
			o.at = maDone
		case maDone:
			if o.flt == nil {
				return true
			}
			var failed bool
			if o.read {
				failed = o.flt.DiskReadError()
			} else {
				failed = o.flt.DiskWriteError()
			}
			if !failed {
				return true
			}
			if o.attempt >= o.retries {
				o.flt.NoteGiveUp(o.read)
				return true
			}
			slept := o.backoff << o.attempt
			o.flt.NoteRetry(slept)
			o.attempt++
			o.at = maArm
			e.At(e.Now()+slept, o.step)
			return false
		}
	}
}
