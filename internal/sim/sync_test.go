package sim

import (
	"testing"
	"testing/quick"
)

// acquire takes a permit of s and then runs k, waiting in s's FIFO (and
// retrying at the back on a lost race) while none is free.
func acquire(s *Semaphore, k func()) {
	var try func()
	try = func() {
		if s.TryAcquire() {
			k()
			return
		}
		s.WaitThen(try)
	}
	try()
}

func TestCondFIFOWakeOrder(t *testing.T) {
	e := New()
	c := NewCond(e)
	var woke []string
	for _, name := range []string{"first", "second", "third"} {
		name := name
		e.At(0, func() {
			c.WaitThen(func() { woke = append(woke, name) })
		})
	}
	e.At(10, func() { c.Signal() })
	e.At(20, func() { c.Signal() })
	e.At(30, func() { c.Signal() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"first", "second", "third"}
	for i := range want {
		if woke[i] != want[i] {
			t.Fatalf("wake order %v, want %v", woke, want)
		}
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	e := New()
	c := NewCond(e)
	n := 0
	for i := 0; i < 5; i++ {
		c.WaitThen(func() { n++ })
	}
	e.At(10, func() { c.Broadcast() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("woke %d, want 5", n)
	}
}

func TestSignalWithNoWaitersReturnsFalse(t *testing.T) {
	e := New()
	c := NewCond(e)
	if c.Signal() {
		t.Fatal("Signal on empty cond returned true")
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	e := New()
	sem := NewSemaphore(e, 2)
	inside, maxInside := 0, 0
	for i := 0; i < 6; i++ {
		e.At(0, func() {
			acquire(sem, func() {
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				e.After(10, func() {
					inside--
					sem.Release()
				})
			})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 2 {
		t.Fatalf("max concurrency %d, want 2", maxInside)
	}
}

func TestTryAcquire(t *testing.T) {
	e := New()
	sem := NewSemaphore(e, 1)
	if !sem.TryAcquire() {
		t.Fatal("first TryAcquire failed")
	}
	if sem.TryAcquire() {
		t.Fatal("second TryAcquire succeeded with 0 permits")
	}
	sem.Release()
	if sem.Available() != 1 {
		t.Fatalf("available %d, want 1", sem.Available())
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	e := New()
	m := NewMutex(e)
	var order []string
	e.At(0, func() {
		acquire(&m.s, func() {
			order = append(order, "a-in")
			e.After(50, func() {
				order = append(order, "a-out")
				m.Unlock()
			})
		})
	})
	e.At(1, func() {
		acquire(&m.s, func() {
			order = append(order, "b-in")
			m.Unlock()
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a-in", "a-out", "b-in"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestBarrierReleasesTogetherAndIsReusable(t *testing.T) {
	e := New()
	const n = 4
	b := NewBarrier(e, n)
	var releases []Time
	for i := 0; i < n; i++ {
		iter := 0
		var arrive, pass func()
		arrive = func() {
			if b.ArriveThen(pass) {
				pass()
			}
		}
		pass = func() {
			releases = append(releases, e.Now())
			if iter++; iter < 3 {
				e.After(Time(10*(i+1)), arrive) // stagger arrivals
			}
		}
		e.At(Time(10*(i+1)), arrive)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(releases) != 3*n {
		t.Fatalf("releases %d, want %d", len(releases), 3*n)
	}
	// Within each generation, everyone is released at the same instant
	// (when the slowest arrives).
	for g := 0; g < 3; g++ {
		first := releases[g*n]
		for i := 1; i < n; i++ {
			if releases[g*n+i] != first {
				t.Fatalf("generation %d releases %v not simultaneous", g, releases[g*n:g*n+n])
			}
		}
	}
}

func TestBarrierWaitTimeReported(t *testing.T) {
	e := New()
	b := NewBarrier(e, 2)
	var fastWait, slowWait Time = -1, -1
	// arrive enters the barrier at its instant and records how long the
	// arrival waited to pass.
	arrive := func(wait *Time) func() {
		return func() {
			t0 := e.Now()
			if b.ArriveThen(func() { *wait = e.Now() - t0 }) {
				*wait = 0
			}
		}
	}
	e.At(0, arrive(&fastWait))
	e.At(40, arrive(&slowWait))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fastWait != 40 {
		t.Fatalf("fast waited %d, want 40", fastWait)
	}
	if slowWait != 0 {
		t.Fatalf("slow (last arrival) waited %d, want 0", slowWait)
	}
}

func TestSemaphorePermitConservationProperty(t *testing.T) {
	// Property: after any balanced sequence of acquire/release by k actors,
	// all permits return to the semaphore.
	f := func(permits uint8, actors uint8, rounds uint8) bool {
		np := int(permits%4) + 1
		k := int(actors%6) + 1
		r := int(rounds%5) + 1
		e := New()
		sem := NewSemaphore(e, np)
		for i := 0; i < k; i++ {
			j := 0
			var round func()
			round = func() {
				if j++; j > r {
					return
				}
				acquire(sem, func() {
					e.After(3, func() {
						sem.Release()
						round()
					})
				})
			}
			e.At(0, round)
		}
		if err := e.Run(); err != nil {
			return false
		}
		return sem.Available() == np
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
