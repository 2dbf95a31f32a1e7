package sim

import (
	"errors"
	"testing"
	"time"
)

// The engine publishes its clock into the attached Progress once every
// Every dispatched events.
func TestProgressPublishesAtBoundaries(t *testing.T) {
	e := New()
	p := &Progress{Every: 2}
	e.AttachProgress(p)
	if p.SimNow() != 0 {
		t.Fatalf("initial publish %d, want 0", p.SimNow())
	}
	var seen []int64
	for _, at := range []Time{3, 25, 47, 60} {
		e.At(at, func() { seen = append(seen, p.SimNow()) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The first event takes no check (the probe still reads 0); the
	// second and fourth take one and see their own instants published,
	// and the third still sees the second's.
	want := []int64{0, 25, 25, 60}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("published clocks %v, want %v", seen, want)
		}
	}
}

// Attaching a probe must not change what the simulation computes:
// same events, same order, same final clock (the SetTick neutrality
// property, inherited by the probe).
func TestProgressDoesNotPerturbDispatch(t *testing.T) {
	run := func(probe bool) ([]Time, Time) {
		e := New()
		if probe {
			e.AttachProgress(&Progress{Every: 2})
		}
		var got []Time
		for _, d := range []Time{50, 10, 30, 20, 40, 30} {
			e.At(d, func() { got = append(got, d) })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return got, e.Now()
	}
	base, baseNow := run(false)
	probed, probedNow := run(true)
	if baseNow != probedNow {
		t.Fatalf("final time %d with probe, %d without", probedNow, baseNow)
	}
	for i := range base {
		if base[i] != probed[i] {
			t.Fatalf("dispatch order changed: %v vs %v", base, probed)
		}
	}
}

// loop runs a chain that sleeps d between steps forever.
func loop(e *Engine, d Time) {
	var step func()
	step = func() { e.After(d, step) }
	e.At(0, step)
}

// RequestAbort lands at the next probe check: Run discards every pending
// event (the endless worker's next step and a bystander far past the
// abort included), wakes no stuck waiter, and returns an *AbortError
// carrying the supervisor's reason.
func TestProgressAbortUnwindsCleanly(t *testing.T) {
	e := New()
	p := &Progress{Every: 10}
	e.AttachProgress(p)
	loop(e, 5)
	c := NewCond(e)
	c.WaitThen(func() { t.Error("stuck waiter woken") })
	// Aborts from inside the simulation are indistinguishable from
	// external ones at the check; trigger one mid-run.
	var requested uint64
	e.At(23, func() { requested = e.Dispatched(); p.RequestAbort("timeout") })
	e.At(1023, func() { t.Error("event past the abort fired") })
	e.At(never/2, func() { t.Error("bystander fired") })
	err := e.Run()
	var aerr *AbortError
	if !errors.As(err, &aerr) {
		t.Fatalf("Run = %v, want *AbortError", err)
	}
	if aerr.Reason != "timeout" {
		t.Fatalf("reason %q, want timeout", aerr.Reason)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events left after the abort", e.Pending())
	}
	if aerr.Dispatched <= requested || aerr.Dispatched > requested+10 || aerr.Now < 23 {
		t.Fatalf("abort landed after %d events at t=%d, want within 10 events of the request (%d events, t=23)",
			aerr.Dispatched, aerr.Now, requested)
	}
}

// A callback that re-schedules itself at the same instant never moves
// the clock, yet a requested abort still lands: the probe check counts
// events, not simulated time. The spin is bounded, so an abort that
// never lands fails the test instead of hanging it.
func TestProgressAbortsStuckClock(t *testing.T) {
	e := New()
	p := &Progress{Every: 100}
	e.AttachProgress(p)
	n := 0
	var spin func()
	spin = func() {
		if n++; n == 50 {
			p.RequestAbort("stalled")
		}
		if n < 1_000_000 {
			e.At(e.Now(), spin)
		}
	}
	e.At(7, spin)
	var aerr *AbortError
	if err := e.Run(); !errors.As(err, &aerr) || aerr.Reason != "stalled" {
		t.Fatalf("Run = %v after %d spins, want a stalled AbortError", err, n)
	}
	if aerr.Now != 7 || aerr.Dispatched != 100 || p.SimNow() != 7 {
		t.Fatalf("abort landed at t=%d after %d events (published %d), want t=7 after 100",
			aerr.Now, aerr.Dispatched, p.SimNow())
	}
}

// An abort requested from another goroutine (the real watchdog shape)
// is honored promptly and the error identifies the reason.
func TestProgressAbortCrossGoroutine(t *testing.T) {
	e := New()
	p := &Progress{Every: 100}
	e.AttachProgress(p)
	loop(e, 50)
	go func() {
		// Wait until the sim has demonstrably advanced, then pull the plug.
		for p.SimNow() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		p.RequestAbort("stalled")
	}()
	err := e.Run()
	var aerr *AbortError
	if !errors.As(err, &aerr) {
		t.Fatalf("Run = %v, want *AbortError", err)
	}
	if aerr.Reason != "stalled" {
		t.Fatalf("reason %q, want stalled", aerr.Reason)
	}
}

// AttachProgress(nil) detaches: no publishes, no abort checks.
func TestProgressDetach(t *testing.T) {
	e := New()
	p := &Progress{Every: 10}
	e.AttachProgress(p)
	e.AttachProgress(nil)
	p.RequestAbort("too late")
	e.At(100, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if p.SimNow() != 0 {
		t.Fatalf("detached probe published %d", p.SimNow())
	}
}

// After an abort teardown the engine is reusable: the probe is
// detached and a fresh run completes normally.
func TestProgressEngineReusableAfterAbort(t *testing.T) {
	e := New()
	p := &Progress{Every: 1}
	e.AttachProgress(p)
	p.RequestAbort("timeout")
	e.At(100, func() {})
	var aerr *AbortError
	if err := e.Run(); !errors.As(err, &aerr) {
		t.Fatalf("Run = %v, want *AbortError", err)
	}
	ran := false
	e.At(e.Now()+5, func() { ran = true })
	if err := e.Run(); err != nil || !ran {
		t.Fatalf("post-abort run: %v (ran=%v)", err, ran)
	}
}
