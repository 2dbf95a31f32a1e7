package sim

import (
	"strconv"
	"testing"
)

// serve runs one service of dur on s at priority pri as a continuation
// chain, the way a callback-driven client does: AcquireThen (queueing k
// if the server is held), hold it for dur, Release, then done. It returns
// the time spent queued through waited when the service ends.
func serve(e *Engine, s *Server, pri Priority, dur Time, done func(waited Time)) {
	t0 := e.Now()
	served := func() {
		e.At(e.Now()+dur, func() {
			s.Release()
			if done != nil {
				done(e.Now() - dur - t0)
			}
		})
	}
	if s.AcquireThen(pri, served) {
		served()
	}
}

// at runs fn at time t.
func at(e *Engine, t Time, fn func()) { e.At(t, fn) }

func TestServerSerializes(t *testing.T) {
	e := New()
	s := NewServer(e, "arm")
	var ends []Time
	for i := 0; i < 3; i++ {
		at(e, 0, func() {
			serve(e, s, High, 100, func(Time) { ends = append(ends, e.Now()) })
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{100, 200, 300}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends %v, want %v", ends, want)
		}
	}
	if s.Busy != 300 {
		t.Fatalf("busy %d", s.Busy)
	}
}

func TestServerHighPriorityJumpsQueue(t *testing.T) {
	e := New()
	s := NewServer(e, "arm")
	var order []string
	at(e, 0, func() { serve(e, s, High, 100, nil) })
	at(e, 10, func() {
		serve(e, s, Low, 10, func(Time) { order = append(order, "low") })
	})
	at(e, 20, func() {
		// Arrives AFTER low, but must be served first.
		serve(e, s, High, 10, func(Time) { order = append(order, "high") })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != "high" || order[1] != "low" {
		t.Fatalf("service order %v, want high first", order)
	}
}

func TestServerFIFOWithinClass(t *testing.T) {
	e := New()
	s := NewServer(e, "arm")
	var order []int
	at(e, 0, func() { serve(e, s, High, 100, nil) })
	for i := 0; i < 3; i++ {
		i := i
		at(e, Time(i+1), func() {
			serve(e, s, Low, 1, func(Time) { order = append(order, i) })
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("order %v", order)
		}
	}
}

func TestServerIdleAndTryAcquire(t *testing.T) {
	e := New()
	s := NewServer(e, "arm")
	at(e, 0, func() {
		if !s.Idle() {
			t.Error("fresh server not idle")
		}
		if !s.TryAcquire() {
			t.Error("TryAcquire failed on idle server")
		}
		if s.TryAcquire() {
			t.Error("TryAcquire succeeded on busy server")
		}
		s.Release()
		if !s.Idle() {
			t.Error("server not idle after release")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestServerReleaseIdlePanics(t *testing.T) {
	e := New()
	s := NewServer(e, "arm")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Release()
}

func TestServerWaitStats(t *testing.T) {
	e := New()
	s := NewServer(e, "arm")
	at(e, 0, func() { serve(e, s, High, 50, nil) })
	at(e, 0, func() {
		serve(e, s, High, 10, func(w Time) {
			if w != 50 {
				t.Errorf("waited %d, want 50", w)
			}
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Waited != 50 {
		t.Fatalf("Waited %d", s.Waited)
	}
	if s.Grants != 2 {
		t.Fatalf("Grants %d", s.Grants)
	}
}

func TestServerStarvationOfLowUnderHighLoad(t *testing.T) {
	// Documented behavior: a continuous stream of high-priority work
	// starves low-priority work until the stream ends.
	e := New()
	s := NewServer(e, "arm")
	var lowDone Time
	at(e, 5, func() {
		serve(e, s, Low, 10, func(Time) { lowDone = e.Now() })
	})
	for i := 0; i < 5; i++ {
		at(e, 0, func() { serve(e, s, High, 100, nil) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if lowDone < 500 {
		t.Fatalf("low served at %d, want after the high stream (>=500)", lowDone)
	}
}

// A Release hands the server to a queued continuation at the releasing
// instant, after the events already due then, holding the server for it.
func TestServerHandsOverAtReleaseInstant(t *testing.T) {
	e := New()
	s := NewServer(e, "arm")
	var log []string
	at(e, 0, func() {
		if !s.AcquireThen(High, nil) {
			t.Error("idle server not taken at once")
		}
		e.At(40, func() {
			log = append(log, "release")
			s.Release()
			if s.Idle() {
				t.Error("server idle after hand-over")
			}
		})
	})
	at(e, 10, func() {
		s.AcquireThen(Low, func() { log = append(log, "granted@"+strconv.FormatInt(e.Now(), 10)) })
	})
	at(e, 40, func() { log = append(log, "same-instant") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"same-instant", "release", "granted@40"}
	if len(log) != len(want) {
		t.Fatalf("log %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log %v, want %v", log, want)
		}
	}
	if s.Waited != 30 || s.Grants != 2 {
		t.Fatalf("Waited %d Grants %d, want 30 and 2", s.Waited, s.Grants)
	}
}
