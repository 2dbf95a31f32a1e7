package sim

import "testing"

// A canceled event's slot returns to the free list; a stale handle to the
// old occupant must not cancel (or otherwise affect) the slot's next life.
func TestStaleCancelDoesNotAffectRecycledSlot(t *testing.T) {
	e := New()
	fired := 0
	stale := e.At(5, func() { fired += 100 })
	e.Cancel(stale)
	if err := e.Run(); err != nil { // drains and recycles the slot
		t.Fatal(err)
	}
	fresh := e.At(10, func() { fired++ })
	if fresh.ev != stale.ev {
		t.Fatal("free list did not recycle the canceled slot (LIFO expected)")
	}
	if fresh.gen == stale.gen {
		t.Fatal("recycled slot kept its generation")
	}
	e.Cancel(stale) // stale handle: must be inert
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (stale cancel hit the new occupant)", fired)
	}
}

// Cancel after the event already fired is a no-op and must not disturb the
// pending count.
func TestCancelAfterFireIsNoOp(t *testing.T) {
	e := New()
	fired := 0
	ev := e.At(5, func() { fired++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Cancel(ev)
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after cancel-after-fire, want 0", e.Pending())
	}
	e.After(5, func() { fired++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// Cancel then re-schedule at the same time: only the live event fires, in
// its own (new) scheduling position.
func TestCancelThenReschedule(t *testing.T) {
	e := New()
	var got []int
	ev := e.At(10, func() { got = append(got, 0) })
	e.At(10, func() { got = append(got, 1) })
	e.Cancel(ev)
	e.At(10, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("fire order %v, want [1 2]", got)
	}
}

// The zero Event is inert: Cancel must ignore it.
func TestCancelZeroEvent(t *testing.T) {
	e := New()
	e.Cancel(Event{})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// At is amortized allocation-free once the slot pool and heap are warm.
func TestAtAllocsAmortizedZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflated under -race")
	}
	e := New()
	for i := 0; i < 2048; i++ { // warm the pool and heap capacity
		e.At(Time(i), func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	fn := func() {}
	next := e.Now()
	avg := testing.AllocsPerRun(1000, func() {
		next++
		e.At(next, fn)
	})
	if avg != 0 {
		t.Fatalf("At allocates %v/op warm, want 0", avg)
	}
}

// Batched same-instant dispatch must preserve strict (time, seq) order:
// every event already in the heap when an instant begins was scheduled
// before it, so the whole heap batch fires first (in schedule order),
// then events scheduled for the same instant during its execution (FIFO
// through the ready queue), then the next instant.
func TestBatchedDispatchPreservesSeqOrder(t *testing.T) {
	e := New()
	var order []int
	e.At(3, func() { order = append(order, 0) })
	e.At(5, func() {
		order = append(order, 1)
		e.At(5, func() { order = append(order, 4) }) // same instant, mid-batch
		e.At(6, func() { order = append(order, 6) }) // next instant
	})
	e.At(5, func() { order = append(order, 2) })
	e.At(5, func() {
		order = append(order, 3)
		e.At(5, func() { order = append(order, 5) }) // after the mid-batch one
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 4, 5, 6}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// A same-instant chain (each event schedules the next at the same time,
// as a Cond hand-off ping-pong does) reuses the ready FIFO's head slot
// instead of growing the queue by one entry per event.
func TestSameInstantChainReusesReadyQueue(t *testing.T) {
	e := New()
	left := 10000
	var step func()
	step = func() {
		if left--; left > 0 {
			e.At(e.Now(), step)
		}
	}
	e.At(0, step)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if left != 0 {
		t.Fatalf("chain stopped with %d steps left", left)
	}
	if c := cap(e.ready); c > 8 {
		t.Fatalf("ready queue grew to capacity %d over a one-event-deep chain", c)
	}
}
