package guard

import "time"

// Prober is the watchdog's window into a running simulation:
// *sim.Progress satisfies it. SimNow returns the last simulated
// timestamp the engine published; RequestAbort asks the engine to
// stop at its next probe check, which comes every few thousand
// dispatched events whether or not the clock moves.
type Prober interface {
	SimNow() int64
	RequestAbort(reason string)
}

// Verdict is the outcome of a supervised cell wait.
type Verdict int

const (
	// VerdictOK: the cell finished (successfully or with its own
	// error) inside its budgets.
	VerdictOK Verdict = iota
	// VerdictTimeout: the cell exceeded its wall-clock budget and
	// honored the abort.
	VerdictTimeout
	// VerdictStalled: simulated time stopped advancing for longer
	// than the stall window and the cell honored the abort. A cell
	// whose engine keeps dispatching at a stuck clock ends here too.
	VerdictStalled
	// VerdictWedged: the cell ignored the abort past the grace
	// period — it is blocked outside the engine's dispatch loop (it
	// dispatches no events, so it never reaches a probe check) and
	// must be abandoned, not joined.
	VerdictWedged
)

// String returns the poison-reason token for the verdict; these are
// the exact tokens persisted in STATE poison records.
func (v Verdict) String() string {
	switch v {
	case VerdictTimeout:
		return "timeout"
	case VerdictStalled:
		return "stalled"
	case VerdictWedged:
		return "wedged"
	default:
		return "ok"
	}
}

// CellGuard is the per-cell watchdog configuration. The zero value is
// disabled: Supervise never runs and cells are waited on unbounded,
// exactly as before the guard layer existed.
//
// The budget is checked after every poll and also when the cell reports
// completion, so a cell that finishes over budget is VerdictTimeout
// whether it finished inside a poll or after one: the verdict does not
// depend on poll phase.
type CellGuard struct {
	// Budget is the wall-clock ceiling for one cell. 0 = unlimited.
	Budget time.Duration
	// Stall is the longest the watchdog tolerates simulated time not
	// advancing (while the wall clock does). 0 = never checked.
	Stall time.Duration
	// Grace is how long after RequestAbort the watchdog waits for the
	// cell to unwind before declaring it wedged. 0 = DefaultGrace.
	Grace time.Duration
	// Poll is the supervision check interval. 0 = DefaultPoll.
	Poll time.Duration
	// Now reads the wall clock. nil = time.Now; tests inject a fake.
	Now func() time.Time
}

// DefaultGrace and DefaultPoll are applied when the corresponding
// CellGuard fields are zero.
const (
	DefaultGrace = 2 * time.Second
	DefaultPoll  = 50 * time.Millisecond
)

// Enabled reports whether any supervision is configured.
func (g CellGuard) Enabled() bool { return g.Budget > 0 || g.Stall > 0 }

// Supervise waits for a cell while enforcing the guard's budgets.
//
// wait blocks up to its argument for the cell to finish and reports
// whether it did (pool.Future.WaitTimeout curried over the future).
// probe is the cell's progress probe; it may be nil, in which case
// only the wall budget is enforced and a budget overrun is
// immediately VerdictWedged (there is no abort channel without a
// probe).
//
// A cell that completes over its budget is VerdictTimeout with no abort
// requested. On a budget or stall violation while the cell runs,
// Supervise calls probe.RequestAbort and gives the cell Grace to unwind
// through the engine's abort path; a cell that does not come back is
// VerdictWedged and must be abandoned by the caller (its goroutine and
// pool slot leak — the documented cost of a truly wedged cell — but its
// STATE and cache are never touched, so a resume retries it cleanly).
func (g CellGuard) Supervise(wait func(time.Duration) bool, probe Prober) Verdict {
	poll, grace := g.Poll, g.Grace
	if poll <= 0 {
		poll = DefaultPoll
	}
	if grace <= 0 {
		grace = DefaultGrace
	}
	clock := g.Now
	if clock == nil {
		clock = time.Now
	}
	start := clock()
	lastAdvance := start
	var lastSim int64
	if probe != nil {
		lastSim = probe.SimNow()
	}
	for {
		if wait(poll) {
			if g.Budget > 0 && clock().Sub(start) > g.Budget {
				return VerdictTimeout
			}
			return VerdictOK
		}
		now := clock()
		if probe != nil {
			if sim := probe.SimNow(); sim != lastSim {
				lastSim, lastAdvance = sim, now
			}
		}
		var verdict Verdict
		switch {
		case g.Budget > 0 && now.Sub(start) > g.Budget:
			verdict = VerdictTimeout
		case g.Stall > 0 && probe != nil && now.Sub(lastAdvance) > g.Stall:
			verdict = VerdictStalled
		default:
			continue
		}
		if probe == nil {
			return VerdictWedged
		}
		probe.RequestAbort(verdict.String())
		if wait(grace) {
			return verdict
		}
		return VerdictWedged
	}
}
