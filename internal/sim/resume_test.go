package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// A callback's Resume runs the parked process as soon as the callback
// returns, ahead of every other event of the instant, and it schedules
// nothing: Dispatched, Pending and the sequence counter read the same in
// the process as in the callback. The Resume is a hand-off: here another
// process drives dispatch when the callback fires, so it costs a switch.
func TestResumeRunsBeforeSameInstantEvents(t *testing.T) {
	e := New()
	var log []string
	type counters struct {
		dispatched uint64
		pending    int
		seq        uint64
	}
	var inCallback, inProc counters
	e.Spawn("driver", func(p *Proc) {
		p.Sleep(10)
		log = append(log, "driver")
		p.Sleep(5)
	})
	e.Spawn("cpu", func(p *Proc) {
		e.At(10, func() {
			log = append(log, "chain")
			e.Resume(p)
			inCallback = counters{e.Dispatched(), e.Pending(), e.seq}
		})
		e.At(10, func() { log = append(log, "other") })
		p.Park("run-ahead")
		inProc = counters{e.Dispatched(), e.Pending(), e.seq}
		log = append(log, "cpu")
		if p.Now() != 10 {
			t.Errorf("resumed at t=%d, want 10", p.Now())
		}
	})
	wakes0 := e.WakeHandoffs()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"driver", "chain", "cpu", "other"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("order %v, want %v", log, want)
	}
	if inProc != inCallback {
		t.Fatalf("counters moved across Resume: callback %+v, process %+v", inCallback, inProc)
	}
	// Two starts, the driver's two Sleep wakes and the Resume; only the
	// two callbacks are dispatched events besides them.
	if got := e.WakeHandoffs() - wakes0; got != 5 {
		t.Fatalf("wake hand-offs = %d, want 5", got)
	}
	if got := e.Resumes(); got != 1 {
		t.Fatalf("resumes = %d, want 1", got)
	}
	if got := e.Dispatched(); got != 6 {
		t.Fatalf("dispatched = %d, want 6 (2 starts, 2 wakes, 2 callbacks)", got)
	}
	if e.switches == 0 {
		t.Fatal("a Resume while another proc drives cost no switch")
	}
}

// runPanic runs e and returns the panic value that escaped Run.
func runPanic(e *Engine) (got any) {
	defer func() { got = recover() }()
	_ = e.Run()
	return nil
}

func TestResumePanics(t *testing.T) {
	t.Run("outside a callback", func(t *testing.T) {
		e := New()
		parked := e.Spawn("parked", func(p *Proc) { p.Park("run-ahead") })
		e.Spawn("caller", func(p *Proc) {
			p.Sleep(1)
			e.Resume(parked)
		})
		if got, _ := runPanic(e).(string); !strings.Contains(got, "outside a callback") {
			t.Fatalf("panic %q, want outside-a-callback", got)
		}
	})
	t.Run("twice in one callback", func(t *testing.T) {
		e := New()
		a := e.Spawn("a", func(p *Proc) { p.Park("run-ahead") })
		b := e.Spawn("b", func(p *Proc) { p.Park("run-ahead") })
		e.At(1, func() {
			e.Resume(a)
			e.Resume(b)
		})
		if got, _ := runPanic(e).(string); !strings.Contains(got, "second Resume") {
			t.Fatalf("panic %q, want second-Resume", got)
		}
		if !b.isParked() {
			t.Fatal("the refused Resume unparked b")
		}
	})
	t.Run("not parked", func(t *testing.T) {
		e := New()
		sleeper := e.Spawn("sleeper", func(p *Proc) { p.Sleep(10) })
		parked := e.Spawn("parked", func(p *Proc) { p.Park("run-ahead") })
		e.At(1, func() { e.Resume(sleeper) })
		if got, _ := runPanic(e).(string); !strings.Contains(got, "non-parked process sleeper") {
			t.Fatalf("panic %q, want non-parked", got)
		}
		// The parked list is intact: a refused Resume must not remove
		// anything from it.
		if len(e.parkedList) != 1 || e.parkedList[0] != parked || parked.parkedIdx != 0 {
			t.Fatalf("parked list corrupted: %d entries", len(e.parkedList))
		}
	})
}

// A process stuck in the blocking step a callback resumed it for is named
// by the deadlock report with the primitive it waits on.
func TestDeadlockNamesProcInBlockingStep(t *testing.T) {
	e := New()
	mu := NewMutex(e).Named("page-entry")
	e.Spawn("holder", func(p *Proc) { mu.Lock(p) }) // never unlocks
	e.Spawn("cpu0", func(p *Proc) {
		// The chain step finds the lock taken and hands the wait to the
		// process, which takes the lock in the blocking form.
		e.At(5, func() {
			if mu.TryLock() {
				t.Error("lock free")
			}
			e.Resume(p)
		})
		p.Park("run-ahead")
		mu.Lock(p)
	})
	var dl *DeadlockError
	if err := e.Run(); !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want a DeadlockError", err)
	}
	want := []BlockedProc{{Name: "cpu0", On: "page-entry", Since: 5}}
	if !reflect.DeepEqual(dl.Blocked, want) {
		t.Fatalf("blocked %v, want %v", dl.Blocked, want)
	}
}

// A livelock teardown discards the pending chain step of a process parked
// with queued work, then kills the process: its defers run, and nothing is
// left queued, parked or pooled.
func TestTeardownKillsProcParkedWithQueuedOps(t *testing.T) {
	e := New()
	e.SetEventLimit(50)
	unwound := false
	e.Spawn("cpu0", func(p *Proc) {
		defer func() { unwound = true }()
		left := 1000 // queued ops, one per chain step
		var step func()
		step = func() {
			if left--; left > 0 {
				e.After(1, step)
				return
			}
			e.Resume(p)
		}
		e.After(1, step)
		p.Park("run-ahead")
		t.Error("resumed although the chain was discarded")
	})
	var ll *LivelockError
	if err := e.Run(); !errors.As(err, &ll) {
		t.Fatalf("Run = %v, want a LivelockError", err)
	}
	if len(ll.Blocked) != 1 || ll.Blocked[0].Name != "cpu0" || ll.Blocked[0].On != "run-ahead" {
		t.Fatalf("blocked %v, want cpu0 on run-ahead", ll.Blocked)
	}
	if !unwound {
		t.Fatal("the killed process's defer did not run")
	}
	if e.Pending() != 0 || len(e.parkedList) != 0 || len(e.procPool) != 0 {
		t.Fatalf("teardown left pending=%d parked=%d pooled=%d",
			e.Pending(), len(e.parkedList), len(e.procPool))
	}
}
