package sim

import (
	"reflect"
	"strings"
	"testing"
)

// A callback's Resume runs its step as soon as the callback returns,
// ahead of every other event of the instant, and it schedules nothing:
// Dispatched, Pending and the sequence counter read the same in the step
// as in the callback.
func TestResumeRunsBeforeSameInstantEvents(t *testing.T) {
	e := New()
	var log []string
	type counters struct {
		dispatched uint64
		pending    int
		seq        uint64
	}
	var inCallback, inStep counters
	e.At(10, func() { log = append(log, "driver") })
	e.At(10, func() {
		log = append(log, "chain")
		e.Resume(func() {
			inStep = counters{e.Dispatched(), e.Pending(), e.seq}
			log = append(log, "cpu")
			if e.Now() != 10 {
				t.Errorf("resumed at t=%d, want 10", e.Now())
			}
		})
		inCallback = counters{e.Dispatched(), e.Pending(), e.seq}
	})
	e.At(10, func() { log = append(log, "other") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"driver", "chain", "cpu", "other"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("order %v, want %v", log, want)
	}
	if inStep != inCallback {
		t.Fatalf("counters moved across Resume: callback %+v, step %+v", inCallback, inStep)
	}
	if got := e.Resumes(); got != 1 {
		t.Fatalf("resumes = %d, want 1", got)
	}
	if got := e.Dispatched(); got != 3 {
		t.Fatalf("dispatched = %d, want 3 callbacks", got)
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
		// A resumed step runs after its callback returned: it is not a
		// callback itself.
		e := New()
		e.At(1, func() { e.Resume(func() { e.Resume(func() {}) }) })
		if got, _ := runPanic(e).(string); !strings.Contains(got, "outside a callback") {
			t.Fatalf("panic %q, want outside-a-callback", got)
		}
	})
	t.Run("twice in one callback", func(t *testing.T) {
		e := New()
		ran := false
		e.At(1, func() {
			e.Resume(func() { ran = true })
			e.Resume(func() { ran = true })
		})
		if got, _ := runPanic(e).(string); !strings.Contains(got, "second Resume") {
			t.Fatalf("panic %q, want second-Resume", got)
		}
		if ran {
			t.Fatal("a step of the refused callback ran")
		}
	})
}

// A panic in a step a callback Resumed (where a CPU thread runs) escapes
// Run to its caller, as one in the callback itself does.
func TestProcPanicPropagatesOutOfRun(t *testing.T) {
	e := New()
	e.At(10, func() { e.Resume(func() { panic("boom") }) })
	if got := runPanic(e); got != "boom" {
		t.Fatalf("Run let through %v, want the step's panic", got)
	}
	if e.Now() != 10 {
		t.Fatalf("panicked at t=%d, want 10", e.Now())
	}
}
