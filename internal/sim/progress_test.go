package sim

import (
	"errors"
	"testing"
	"time"
)

// The engine publishes its clock into the attached Progress at every
// probe boundary crossed by dispatch.
func TestProgressPublishesAtBoundaries(t *testing.T) {
	e := New()
	p := &Progress{Every: 10}
	e.AttachProgress(p)
	if p.SimNow() != 0 {
		t.Fatalf("initial publish %d, want 0", p.SimNow())
	}
	var seen []int64
	for _, at := range []Time{3, 25, 47} {
		at := at
		e.At(at, func() { seen = append(seen, p.SimNow()) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Event at 3 crossed no boundary (probe still 0); events at 25 and
	// 47 see their own instants published (25 and 47 are past the 20-
	// and 40-boundaries, and the probe publishes the instant itself).
	want := []int64{0, 25, 47}
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
			e.AttachProgress(&Progress{Every: 7})
		}
		var got []Time
		for _, d := range []Time{50, 10, 30, 20, 40, 30} {
			d := d
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

// RequestAbort lands at the next probe boundary: Run discards every
// pending event (the endless worker's next step included) and returns an
// *AbortError carrying the supervisor's reason.
func TestProgressAbortUnwindsCleanly(t *testing.T) {
	e := New()
	p := &Progress{Every: 10}
	e.AttachProgress(p)
	loop(e, 5)
	// Aborts from inside the simulation are indistinguishable from
	// external ones at the boundary; trigger one mid-run.
	e.At(23, func() { p.RequestAbort("timeout") })
	e.At(1023, func() { t.Error("event past the abort fired") })
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
	if aerr.Now < 23 || aerr.Now > 40 {
		t.Fatalf("abort landed at t=%d, want shortly after the request at 23", aerr.Now)
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
	p := &Progress{Every: 10}
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
