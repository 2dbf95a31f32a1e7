package sim

import "testing"

// A ping-pong event storm that never drains must trip the event budget
// and come back as a LivelockError, with every pending event discarded.
func TestLivelockGuard(t *testing.T) {
	e := New()
	e.SetEventLimit(10_000)
	loop(e, 1)
	c := NewCond(e)
	c.WaitThen(func() { t.Error("stuck waiter woken") })
	// A bystander far past the storm: teardown must discard it too.
	e.At(never/2, func() { t.Error("bystander fired") })
	err := e.Run()
	le, ok := err.(*LivelockError)
	if !ok {
		t.Fatalf("err = %v, want LivelockError", err)
	}
	if le.Dispatched < 10_000 {
		t.Fatalf("dispatched %d below the limit", le.Dispatched)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events left after teardown", e.Pending())
	}
	// The engine is reusable: the guard cleared, a fresh run works.
	e.SetEventLimit(0)
	ran := false
	e.At(e.Now()+5, func() { ran = true })
	if err := e.Run(); err != nil {
		t.Fatalf("rerun after livelock: %v", err)
	}
	if !ran {
		t.Fatal("event did not run after livelock teardown")
	}
}

func TestEventLimitOffByDefault(t *testing.T) {
	e := New()
	n := 0
	var step func()
	step = func() {
		if n < 50_000 {
			n++
			e.After(1, step)
		}
	}
	e.At(0, step)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 50_000 {
		t.Fatalf("ran %d iterations", n)
	}
}
