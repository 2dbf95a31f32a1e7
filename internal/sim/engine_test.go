package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var got []Time
	for _, d := range []Time{50, 10, 30, 20, 40} {
		d := d
		e.At(d, func() { got = append(got, d) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 20, 30, 40, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if e.Now() != 50 {
		t.Fatalf("final time %d, want 50", e.Now())
	}
}

func TestSameTimeEventsFireInScheduleOrder(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie-break order %v", got)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := New()
	var at Time
	e.At(10, func() {
		e.After(5, func() { at = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 15 {
		t.Fatalf("After fired at %d, want 15", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(5, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomScheduleOrderProperty(t *testing.T) {
	// Property: whatever order events are scheduled in, they fire in
	// nondecreasing time order and ties fire in scheduling order.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		count := int(n%64) + 1
		type fired struct {
			t   Time
			seq int
		}
		var log []fired
		for i := 0; i < count; i++ {
			i := i
			at := Time(rng.Intn(20))
			e.At(at, func() { log = append(log, fired{at, i}) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		if len(log) != count {
			return false
		}
		if !sort.SliceIsSorted(log, func(a, b int) bool {
			if log[a].t != log[b].t {
				return log[a].t < log[b].t
			}
			return log[a].seq < log[b].seq
		}) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A chain's sleeps advance the clock; a zero-length sleep is still an
// event at the current instant.
func TestProcSleepAdvancesTime(t *testing.T) {
	e := New()
	var marks []Time
	mark := func() { marks = append(marks, e.Now()) }
	e.At(0, func() {
		mark()
		e.After(100, func() {
			mark()
			e.After(0, mark)
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 100, 100}
	if len(marks) != len(want) || e.Dispatched() != 3 {
		t.Fatalf("marks %v in %d events, want %v in 3", marks, e.Dispatched(), want)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks %v, want %v", marks, want)
		}
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := New()
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			i := 0
			var step func()
			step = func() {
				if i++; i <= 3 {
					log = append(log, name)
					e.After(10, step)
				}
			}
			e.At(0, step)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); len(got) != len(first) {
			t.Fatal("nondeterministic length")
		} else {
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("run %d diverged at %d: %v vs %v", i, j, got, first)
				}
			}
		}
	}
}

// A server written as a continuation chain idles on its wake-up condition
// forever once the work is done; that is not a deadlock.
func TestWaitingContinuationIsNotDeadlock(t *testing.T) {
	e := New()
	c := NewCond(e)
	var serve func()
	serve = func() { c.WaitThen(serve) }
	e.At(0, serve)
	e.At(5, func() {})
	if err := e.Run(); err != nil {
		t.Fatalf("idle continuation flagged as deadlock: %v", err)
	}
	if c.waiting.len() != 1 {
		t.Fatalf("%d waiters left, want the idle server", c.waiting.len())
	}
}

// SetTick fires the hook at every crossed multiple of d, with Now()
// reading boundary time inside the hook, and never past the last event.
func TestSetTickFiresAtBoundaries(t *testing.T) {
	e := New()
	var ticks []Time
	e.SetTick(10, func(now Time) {
		if e.Now() != now {
			t.Fatalf("Now()=%d inside hook for boundary %d", e.Now(), now)
		}
		ticks = append(ticks, now)
	})
	for _, at := range []Time{3, 7, 25, 47} {
		e.At(at, func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Events at 3 and 7 cross no boundary; 25 crosses 10 and 20; 47
	// crosses 30 and 40. No tick at 50: the clock stops with the work.
	want := []Time{10, 20, 30, 40}
	if len(ticks) != len(want) {
		t.Fatalf("ticks %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks %v, want %v", ticks, want)
		}
	}
	if e.Now() != 47 {
		t.Fatalf("final time %d, want 47 (tick must not advance the clock)", e.Now())
	}
}

// An event exactly on a boundary sees the hook fire first (boundary
// times are "crossed" inclusively), and the hook never fires twice for
// one boundary.
func TestSetTickEventOnBoundary(t *testing.T) {
	e := New()
	var order []string
	e.SetTick(10, func(now Time) { order = append(order, "tick") })
	e.At(10, func() { order = append(order, "event") })
	e.At(10, func() { order = append(order, "event") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "tick" || order[1] != "event" || order[2] != "event" {
		t.Fatalf("order %v, want [tick event event]", order)
	}
}

// Installing a tick hook must not change what the simulation computes:
// same events, same order, same final clock.
func TestSetTickDoesNotPerturbDispatch(t *testing.T) {
	run := func(tick Time) ([]Time, Time) {
		e := New()
		if tick > 0 {
			e.SetTick(tick, func(Time) {})
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
	base, baseNow := run(0)
	ticked, tickedNow := run(7)
	if baseNow != tickedNow {
		t.Fatalf("final time %d with ticks, %d without", tickedNow, baseNow)
	}
	for i := range base {
		if base[i] != ticked[i] {
			t.Fatalf("dispatch order changed: %v vs %v", base, ticked)
		}
	}
}

// SetTick with d <= 0 or a nil hook uninstalls it.
func TestSetTickUninstall(t *testing.T) {
	e := New()
	fired := 0
	e.SetTick(5, func(Time) { fired++ })
	e.SetTick(0, nil)
	e.At(100, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("uninstalled hook fired %d times", fired)
	}
}

// A panic in a callback, where a CPU thread runs, escapes Run to its
// caller at the callback's instant.
func TestProcPanicPropagatesOutOfRun(t *testing.T) {
	e := New()
	e.At(10, func() { panic("boom") })
	got := func() (got any) {
		defer func() { got = recover() }()
		_ = e.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("Run let through %v, want the callback's panic", got)
	}
	if e.Now() != 10 {
		t.Fatalf("panicked at t=%d, want 10", e.Now())
	}
}
