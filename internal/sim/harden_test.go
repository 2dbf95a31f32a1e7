package sim

import (
	"strings"
	"testing"
)

// The deadlock dump must name what each stuck proc is blocked on and when
// it parked, and leave out continuations still waiting.
func TestDeadlockDumpIsStructured(t *testing.T) {
	e := New()
	c := NewCond(e).Named("chanRoom0")
	mu := NewMutex(e).Named("disk0.arm")
	e.Spawn("hog", func(p *Proc) {
		mu.Lock(p)
		c.Wait(p) // parked holding the mutex
	})
	e.Spawn("waiter", func(p *Proc) {
		p.Sleep(10)
		mu.Lock(p) // parked behind hog forever
	})
	c.WaitThen(func() { t.Error("idle continuation woken") })
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 2 {
		t.Fatalf("blocked dump %+v, want 2 entries", de.Blocked)
	}
	// Name-sorted: hog first.
	if de.Blocked[0] != (BlockedProc{Name: "hog", On: "chanRoom0", Since: 0}) {
		t.Fatalf("hog entry %+v", de.Blocked[0])
	}
	if de.Blocked[1] != (BlockedProc{Name: "waiter", On: "disk0.arm", Since: 10}) {
		t.Fatalf("waiter entry %+v", de.Blocked[1])
	}
	msg := de.Error()
	for _, frag := range []string{"hog blocked on chanRoom0 since t=0",
		"waiter blocked on disk0.arm since t=10", "2 process(es) parked forever"} {
		if !strings.Contains(msg, frag) {
			t.Fatalf("dump %q missing %q", msg, frag)
		}
	}
}

// A ping-pong event storm that never drains must trip the event budget
// and come back as a LivelockError, with every goroutine unwound.
func TestLivelockGuard(t *testing.T) {
	e := New()
	e.SetEventLimit(10_000)
	c := NewCond(e).Named("spin")
	e.Spawn("ping", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	e.Spawn("stuck", func(p *Proc) { c.Wait(p) })
	// A bystander whose wake lies far past the storm: teardown must
	// discard the wake and unwind it too.
	e.Spawn("bystander", func(p *Proc) { p.Sleep(never / 2) })
	err := e.Run()
	le, ok := err.(*LivelockError)
	if !ok {
		t.Fatalf("err = %v, want LivelockError", err)
	}
	if le.Dispatched < 10_000 {
		t.Fatalf("dispatched %d below the limit", le.Dispatched)
	}
	if len(le.Blocked) != 1 || le.Blocked[0].Name != "stuck" || le.Blocked[0].On != "spin" {
		t.Fatalf("blocked dump %+v", le.Blocked)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events left after teardown", e.Pending())
	}
	// The engine is reusable: the guard cleared, a fresh run works.
	e.SetEventLimit(0)
	ran := false
	e.Spawn("again", func(p *Proc) { p.Sleep(5); ran = true })
	if err := e.Run(); err != nil {
		t.Fatalf("rerun after livelock: %v", err)
	}
	if !ran {
		t.Fatal("proc did not run after livelock teardown")
	}
}

// Livelock teardown discards start events of procs that never ran; their
// goroutines must unwind without executing the body.
func TestLivelockDiscardsUnstartedProcs(t *testing.T) {
	e := New()
	e.SetEventLimit(100)
	e.Spawn("spinner", func(p *Proc) {
		for {
			p.Sleep(1)
			// Keep spawning: some start events are always pending when the
			// guard trips.
			e.Spawn("child", func(p *Proc) { p.Sleep(1) })
		}
	})
	if _, ok := e.Run().(*LivelockError); !ok {
		t.Fatal("expected LivelockError")
	}
	if e.Pending() != 0 || len(e.parkedList) != 0 {
		t.Fatalf("teardown incomplete: pending=%d parked=%d", e.Pending(), len(e.parkedList))
	}
}

func TestEventLimitOffByDefault(t *testing.T) {
	e := New()
	n := 0
	e.Spawn("busy", func(p *Proc) {
		for i := 0; i < 50_000; i++ {
			p.Sleep(1)
			n++
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 50_000 {
		t.Fatalf("ran %d iterations", n)
	}
}
