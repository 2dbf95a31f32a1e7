package sim

import (
	"errors"
	"runtime"
	"testing"
)

// A ping-pong event storm that never drains must be cut off by a
// supervisor enforcing a budget through the probe (the watchdog shape:
// it reads SimNow from another goroutine and requests the abort), and
// come back as an *AbortError with every pending event discarded.
func TestLivelockGuard(t *testing.T) {
	e := New()
	p := &Progress{Every: 100}
	e.AttachProgress(p)
	loop(e, 1)
	c := NewCond(e)
	c.WaitThen(func() { t.Error("stuck waiter woken") })
	// A bystander far past the storm: teardown must discard it too.
	e.At(never/2, func() { t.Error("bystander fired") })
	const budget = 10_000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p.SimNow() < budget {
			runtime.Gosched()
		}
		p.RequestAbort("livelock")
	}()
	err := e.Run()
	<-done
	var aerr *AbortError
	if !errors.As(err, &aerr) || aerr.Reason != "livelock" {
		t.Fatalf("err = %v, want a livelock AbortError", err)
	}
	// One event per cycle: the clock passed the budget, so did the count.
	if aerr.Dispatched < budget || aerr.Now < budget {
		t.Fatalf("aborted after %d events at t=%d, below the budget %d", aerr.Dispatched, aerr.Now, budget)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events left after teardown", e.Pending())
	}
	// The engine is reusable: the probe detached, a fresh run works.
	ran := false
	e.At(e.Now()+5, func() { ran = true })
	if err := e.Run(); err != nil {
		t.Fatalf("rerun after livelock: %v", err)
	}
	if !ran {
		t.Fatal("event did not run after livelock teardown")
	}
}
