// Package guard is the host-fault supervision layer for the sweep
// fabric: it hardens the *process* running simulations the way
// internal/fault hardens the *simulated* machine.
//
// The simulated machine is deterministic and zero-loss by
// construction; the host running a million-cell sweep is neither. A
// cell can hang (livelock in a miswired experiment), panic (a bug in
// one configuration out of thousands), or the host filesystem can
// misbehave under load — ENOSPC while another shard compacts, EINTR
// on a signal, a short write on an overloaded NFS mount. Without
// supervision any one of those takes down a whole shard and its
// in-flight work. guard converts them into bounded, recorded,
// resumable degradation:
//
//   - Classify/Retry: a transient-vs-terminal error taxonomy plus
//     bounded retry with exponential backoff and deterministic jitter
//     for host I/O (STATE appends, cache Put/Get, merge reads).
//   - FS/File: a small filesystem seam so every byte the sweep fabric
//     persists can be routed through a fault-injecting wrapper.
//   - ChaosFS: that wrapper — seeded, plan-driven fault injection
//     (fail-nth fsync, short/torn writes, ENOSPC windows) in the same
//     line-based plan idiom as internal/fault.
//   - CellGuard: a per-cell watchdog that enforces wall-clock budgets
//     and aborts cells whose simulated time stops advancing, using a
//     cheap sim.Engine progress probe.
//
// Everything here is disabled by default and free when disabled: a
// nil *Retrier runs the operation directly, OS is a zero-cost pass
// through to the os package, and an unset CellGuard never starts a
// watchdog.
package guard

import (
	"errors"
	"io"
	"syscall"
)

// Class is the disposition of a host I/O error.
type Class int

const (
	// Terminal errors are not worth retrying: permission denied,
	// corrupt input, programming errors. The operation fails.
	Terminal Class = iota
	// Transient errors are blips that plausibly clear on their own:
	// EINTR, EAGAIN, short writes, ENOSPC windows (space is freed as
	// other shards rotate logs and remove temp files). Bounded retry
	// with backoff is worthwhile; a *persistent* "transient" error
	// still terminates once the retry budget is spent.
	Transient
)

func (c Class) String() string {
	if c == Transient {
		return "transient"
	}
	return "terminal"
}

// transientMark wraps an error to force Transient classification.
// Used by ChaosFS (injected faults must be retryable by design) and
// available to callers that know more than the errno does.
type transientMark struct{ err error }

func (t *transientMark) Error() string { return t.err.Error() }
func (t *transientMark) Unwrap() error { return t.err }

// MarkTransient returns err wrapped so Classify reports Transient.
// A nil err stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientMark{err: err}
}

// Classify sorts a host I/O error into the retry taxonomy.
//
// Transient: EINTR, EAGAIN/EWOULDBLOCK, ENOSPC, EMFILE/ENFILE,
// io.ErrShortWrite, and anything wrapped by MarkTransient. ENOSPC is
// deliberately transient — on a shared sweep host, space comes and
// goes as sibling shards rotate and clean up; the bounded retry
// budget keeps a genuinely full disk from looping forever.
//
// Terminal: everything else — including EIO on the write path. A
// failed fsync may mean the kernel already dropped the dirty pages
// (the "fsyncgate" semantics), so blind resubmission of the same
// descriptor is not trustworthy; callers that CAN safely retry an
// EIO do so by re-running a verified write-then-read-back operation
// from scratch, not by reclassifying the errno.
func Classify(err error) Class {
	if err == nil {
		return Terminal
	}
	var tm *transientMark
	if errors.As(err, &tm) {
		return Transient
	}
	switch {
	case errors.Is(err, syscall.EINTR),
		errors.Is(err, syscall.EAGAIN),
		errors.Is(err, syscall.ENOSPC),
		errors.Is(err, syscall.EMFILE),
		errors.Is(err, syscall.ENFILE),
		errors.Is(err, io.ErrShortWrite):
		return Transient
	}
	// ErrPermission, ErrNotExist, ErrInvalid, EIO, anything
	// unrecognised: terminal.
	return Terminal
}

// IsTransient reports whether Classify(err) == Transient.
func IsTransient(err error) bool { return err != nil && Classify(err) == Transient }
