package sim

import "testing"

// BenchmarkAt measures the pooled schedule-then-fire cycle: each iteration
// schedules one future event while the engine drains, so every slot comes
// from the free list.
func BenchmarkAt(b *testing.B) {
	b.ReportAllocs()
	e := New()
	n := 0
	var step func()
	step = func() {
		if n < b.N {
			n++
			e.After(1, step)
		}
	}
	e.After(1, step)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSameInstantStorm exercises the ready-queue bypass: events
// scheduled at the current instant skip the heap entirely.
func BenchmarkSameInstantStorm(b *testing.B) {
	b.ReportAllocs()
	e := New()
	n := 0
	var step func()
	step = func() {
		if n < b.N {
			n++
			e.At(e.Now(), step) // t == now: ready queue, not heap
		}
	}
	e.At(0, step)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkUnparkStorm measures the wake-up of a continuation waiting on
// a condition variable (the synchronization-primitive hot path): a waker
// signals once per pcycle, and the waiter queues again each time.
func BenchmarkUnparkStorm(b *testing.B) {
	b.ReportAllocs()
	e := New()
	c := NewCond(e)
	var wait, wake func()
	waits, wakes := 0, 0
	wait = func() {
		if waits++; waits < b.N {
			c.WaitThen(wait)
		}
	}
	wake = func() {
		if wakes++; wakes <= b.N {
			c.Signal()
			e.After(1, wake)
		}
	}
	c.WaitThen(wait)
	e.At(0, wake)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
