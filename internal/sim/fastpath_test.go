package sim

import "testing"

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
