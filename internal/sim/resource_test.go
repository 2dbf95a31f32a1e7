package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// useFor books r for dur from now and runs then, with the time spent
// queued, once queueing plus service are over: a Reserve plus the wait a
// caller models for itself.
func useFor(e *Engine, r *Resource, dur Time, then func(waited Time)) {
	t0 := e.Now()
	start := r.Reserve(t0, dur)
	e.At(start+dur, func() { then(start - t0) })
}

func TestResourceSerializesFCFS(t *testing.T) {
	e := New()
	r := NewResource(e, "bus")
	var ends []Time
	for i := 0; i < 3; i++ {
		e.At(0, func() {
			useFor(e, r, 100, func(Time) { ends = append(ends, e.Now()) })
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
	if r.Busy != 300 {
		t.Fatalf("busy %d, want 300", r.Busy)
	}
	if r.Waited != 0+100+200 {
		t.Fatalf("waited %d, want 300", r.Waited)
	}
}

func TestResourceIdleGapsNotCharged(t *testing.T) {
	e := New()
	r := NewResource(e, "bus")
	e.At(0, func() { useFor(e, r, 10, func(Time) {}) })
	e.At(1000, func() { // resource long idle
		useFor(e, r, 10, func(w Time) {
			if w != 0 {
				t.Errorf("waited %d after idle gap, want 0", w)
			}
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.FreeAt() != 1010 {
		t.Fatalf("freeAt %d, want 1010", r.FreeAt())
	}
}

func TestReserveClampsPastEarliest(t *testing.T) {
	e := New()
	r := NewResource(e, "x")
	e.At(50, func() {
		if s := r.Reserve(10, 5); s != 50 {
			t.Errorf("start %d, want clamped to now=50", s)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReserveNegativePanics(t *testing.T) {
	e := New()
	r := NewResource(e, "x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Reserve(0, -1)
}

func TestUtilization(t *testing.T) {
	e := New()
	r := NewResource(e, "x")
	e.At(0, func() {
		useFor(e, r, 25, func(Time) { e.After(75, func() {}) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if u := r.Utilization(); u != 0.25 {
		t.Fatalf("utilization %f, want 0.25", u)
	}
}

func TestPipelineUncontendedCutThrough(t *testing.T) {
	e := New()
	a := NewResource(e, "a")
	b := NewResource(e, "b")
	c := NewResource(e, "c")
	stages := []Stage{
		{Res: a, Occupy: 100, Forward: 10},
		{Res: b, Occupy: 100, Forward: 10},
		{Res: c, Occupy: 100, Forward: 0},
	}
	depart, arrive := Pipeline(0, stages)
	if depart != 0 {
		t.Fatalf("depart %d, want 0", depart)
	}
	// Cut-through: arrive = forward latencies (10+10) + last occupancy.
	if arrive != 120 {
		t.Fatalf("arrive %d, want 120 (pipelined), not 300 (store-and-forward)", arrive)
	}
}

func TestPipelineContentionDelaysStage(t *testing.T) {
	e := New()
	a := NewResource(e, "a")
	b := NewResource(e, "b")
	b.Reserve(0, 500) // stage b busy until 500
	_, arrive := Pipeline(0, []Stage{
		{Res: a, Occupy: 100, Forward: 10},
		{Res: b, Occupy: 100, Forward: 0},
	})
	if arrive != 600 {
		t.Fatalf("arrive %d, want 600 (b busy till 500 + 100)", arrive)
	}
}

func TestPipelineEmptyStages(t *testing.T) {
	d, a := Pipeline(42, nil)
	if d != 42 || a != 42 {
		t.Fatalf("empty pipeline (%d,%d), want (42,42)", d, a)
	}
}

func TestPipelineArriveIsMaxEnd(t *testing.T) {
	// A slow early stage bounds arrival: the payload cannot fully arrive
	// before it fully left the slow stage.
	e := New()
	a := NewResource(e, "a")
	b := NewResource(e, "b")
	_, arrive := Pipeline(0, []Stage{
		{Res: a, Occupy: 1000, Forward: 1},
		{Res: b, Occupy: 10, Forward: 0},
	})
	if arrive != 1000 {
		t.Fatalf("arrive %d, want 1000", arrive)
	}
}

func TestResourceReservationMonotoneProperty(t *testing.T) {
	// Property: for reservations issued in nondecreasing earliest order,
	// granted start times are nondecreasing (FCFS) and never overlap.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		r := NewResource(e, "x")
		count := int(n%50) + 1
		earliest := Time(0)
		var lastStart, lastEnd Time = -1, 0
		for i := 0; i < count; i++ {
			earliest += Time(rng.Intn(20))
			dur := Time(rng.Intn(30) + 1)
			s := r.Reserve(earliest, dur)
			if s < earliest || s < lastStart || s < lastEnd {
				return false
			}
			lastStart, lastEnd = s, s+dur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
