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

// BenchmarkUnparkStorm measures park/unpark handoff between two procs via
// a condition variable (the synchronization-primitive hot path).
func BenchmarkUnparkStorm(b *testing.B) {
	b.ReportAllocs()
	e := New()
	c := NewCond(e)
	e.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.Wait(p)
		}
	})
	e.Spawn("waker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.Signal()
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCancel measures the schedule + cancel + slot-recycle cycle.
// The chain advances time each step, so canceled slots are drained and
// reused instead of accumulating in the heap.
func BenchmarkCancel(b *testing.B) {
	b.ReportAllocs()
	e := New()
	fn := func() {}
	n := 0
	var step func()
	step = func() {
		if n < b.N {
			n++
			e.Cancel(e.After(1, fn))
			e.After(1, step)
		}
	}
	e.After(1, step)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
