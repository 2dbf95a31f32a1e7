package sim

import (
	"reflect"
	"testing"
)

// A scripted actor for the continuation tests: an op list run as a
// continuation chain (TryLock/TryAcquire, falling back to WaitThen), so
// its wake-ups can be compared event for event with a pinned order.
type opKind uint8

const (
	opSleep opKind = iota
	opWait
	opLock
	opUnlock
	opAcquire
	opRelease
	opMark // record (name, now, events dispatched so far)
)

type op struct {
	kind opKind
	d    Time
}

type mark struct {
	name string
	t    Time
	n    uint64 // Dispatched() when the mark ran: its (t, seq) position
}

type actorSpec struct {
	name string
	ops  []op
}

// prims are the shared primitives one scenario's actors block on.
type prims struct {
	c   *Cond
	mu  *Mutex
	sem *Semaphore
}

// contActor interprets the op list as a continuation chain.
type contActor struct {
	e    *Engine
	pr   prims
	name string
	ops  []op
	pc   int
	log  *[]mark
	step func()
}

func (a *contActor) run() {
	for a.pc < len(a.ops) {
		o := a.ops[a.pc]
		a.pc++
		switch o.kind {
		case opSleep:
			a.e.At(a.e.Now()+o.d, a.step)
			return
		case opWait:
			a.pr.c.WaitThen(a.step)
			return
		case opLock:
			if !a.pr.mu.TryLock() {
				a.pc-- // retry the lock when woken
				a.pr.mu.WaitThen(a.step)
				return
			}
		case opUnlock:
			a.pr.mu.Unlock()
		case opAcquire:
			if !a.pr.sem.TryAcquire() {
				a.pc--
				a.pr.sem.WaitThen(a.step)
				return
			}
		case opRelease:
			a.pr.sem.Release()
		case opMark:
			*a.log = append(*a.log, mark{a.name, a.e.Now(), a.e.Dispatched()})
		}
	}
}

// runScenario runs the actors (each started at t=0, in order) plus the
// driver callbacks, and returns the marks in the order they fired.
func runScenario(t *testing.T, actors []actorSpec, permits int, drive func(e *Engine, pr prims)) []mark {
	t.Helper()
	e := New()
	pr := prims{c: NewCond(e), mu: NewMutex(e), sem: NewSemaphore(e, permits)}
	var log []mark
	for _, a := range actors {
		ca := &contActor{e: e, pr: pr, name: a.name, ops: a.ops, log: &log}
		ca.step = ca.run
		e.At(e.Now(), ca.step)
	}
	drive(e, pr)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return log
}

func sleepFor(d Time) op { return op{kind: opSleep, d: d} }
func do(k opKind) op     { return op{kind: k} }

// Continuations queued on one Cond, Mutex or Semaphore wake at the same
// (time, seq) points as the blocking process forms these primitives once
// had: each want is the mark log of that all-process reference run.
func TestContinuationWaitsMatchProcessOrder(t *testing.T) {
	cases := []struct {
		name    string
		permits int
		actors  []actorSpec
		drive   func(e *Engine, pr prims)
		want    []mark
	}{
		{
			name: "cond",
			actors: []actorSpec{
				{name: "a", ops: []op{do(opWait), do(opMark), sleepFor(3), do(opWait), do(opMark)}},
				{name: "b", ops: []op{sleepFor(1), do(opWait), do(opMark), do(opWait), do(opMark)}},
				{name: "c", ops: []op{sleepFor(1), do(opWait), do(opMark), sleepFor(0), do(opWait), do(opMark)}},
				{name: "d", ops: []op{sleepFor(2), do(opWait), do(opMark), do(opWait), do(opMark)}},
			},
			drive: func(e *Engine, pr prims) {
				e.At(10, func() { pr.c.Signal() })
				e.At(12, func() { pr.c.Signal(); pr.c.Signal() })
				e.At(12, func() { pr.c.Signal() })
				e.At(20, func() { pr.c.Broadcast() })
				e.At(30, func() { pr.c.Broadcast() })
			},
			want: []mark{{"a", 10, 9}, {"b", 12, 12}, {"c", 12, 13}, {"d", 12, 14},
				{"b", 20, 18}, {"d", 20, 19}, {"c", 20, 20}, {"a", 20, 21}},
		},
		{
			name: "mutex",
			actors: []actorSpec{
				{name: "a", ops: []op{do(opLock), do(opMark), sleepFor(5), do(opUnlock), do(opLock), do(opMark), sleepFor(1), do(opUnlock)}},
				{name: "b", ops: []op{do(opLock), do(opMark), sleepFor(2), do(opUnlock), sleepFor(0), do(opLock), do(opMark), do(opUnlock)}},
				{name: "c", ops: []op{sleepFor(1), do(opLock), do(opMark), do(opUnlock)}},
				{name: "d", ops: []op{sleepFor(5), do(opLock), do(opMark), sleepFor(4), do(opUnlock)}},
				{name: "e", ops: []op{sleepFor(5), do(opLock), do(opMark), do(opUnlock), do(opLock), do(opMark), do(opUnlock)}},
			},
			drive: func(e *Engine, pr prims) {},
			want: []mark{{"a", 0, 1}, {"a", 5, 7}, {"c", 6, 12}, {"d", 6, 13},
				{"e", 10, 15}, {"e", 10, 15}, {"b", 10, 16}, {"b", 12, 18}},
		},
		{
			name:    "semaphore",
			permits: 2,
			actors: []actorSpec{
				{name: "a", ops: []op{do(opAcquire), do(opMark), sleepFor(4), do(opRelease), do(opAcquire), do(opMark), do(opRelease)}},
				{name: "b", ops: []op{do(opAcquire), do(opMark), sleepFor(4), do(opRelease)}},
				{name: "c", ops: []op{do(opAcquire), do(opMark), sleepFor(1), do(opRelease), do(opAcquire), do(opMark), sleepFor(2), do(opRelease)}},
				{name: "d", ops: []op{sleepFor(1), do(opAcquire), do(opMark), sleepFor(3), do(opRelease)}},
				{name: "e", ops: []op{sleepFor(4), do(opAcquire), do(opMark), do(opRelease)}},
			},
			drive: func(e *Engine, pr prims) {},
			want: []mark{{"a", 0, 1}, {"b", 0, 2}, {"a", 4, 7}, {"e", 4, 9},
				{"c", 4, 10}, {"d", 4, 11}, {"c", 5, 12}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := runScenario(t, tc.actors, tc.permits, tc.drive); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("\n got %v\nwant %v", got, tc.want)
			}
		})
	}
}

// A woken continuation whose permit is taken before its retry fires (a
// TryLock barging in at the same instant) re-queues at the back, behind
// a waiter that queued after it.
func TestContinuationLosingRetryRequeuesAtBack(t *testing.T) {
	actors := []actorSpec{
		{name: "holder", ops: []op{do(opLock), sleepFor(10), do(opUnlock)}},
		{name: "first", ops: []op{sleepFor(1), do(opLock), do(opMark), sleepFor(1), do(opUnlock)}},
		{name: "second", ops: []op{sleepFor(2), do(opLock), do(opMark), sleepFor(1), do(opUnlock)}},
	}
	drive := func(e *Engine, pr prims) {
		// Scheduled at t=9, so at t=10 it fires after the holder's wake
		// (scheduled at t=0) and before the retry that the holder's
		// Unlock schedules.
		barge := func() {
			if !pr.mu.TryLock() {
				t.Error("barger could not take the just-released mutex")
				return
			}
			e.At(15, pr.mu.Unlock)
		}
		e.At(9, func() { e.At(10, barge) })
	}
	want := []string{"second", "first"}
	log := runScenario(t, actors, 1, drive)
	var names []string
	for _, m := range log {
		names = append(names, m.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("lock order %v, want %v", names, want)
	}
	if log[0].t != 15 || log[1].t != 16 {
		t.Fatalf("lock times %v, want 15 then 16", log)
	}
}

// Steady-state continuation waits allocate nothing: the waiter FIFO keeps
// its capacity and the wake reuses a pooled event slot.
func TestContinuationWaitAllocsAmortizedZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflated under -race")
	}
	e := New()
	c := NewCond(e)
	sem := NewSemaphore(e, 0)
	mu := NewMutex(e)
	runs := 0
	k := func() { runs++ }
	acquire := func() { runs++; sem.TryAcquire() }
	lock := func() {
		runs++
		if mu.TryLock() {
			mu.Unlock()
		}
	}
	// Each cycle queues a continuation, wakes it, and runs the engine
	// until the woken continuation has run.
	run := func() {
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	cycles := map[string]func(){
		"cond": func() {
			c.WaitThen(k)
			c.Signal()
			run()
		},
		"semaphore": func() {
			sem.WaitThen(acquire) // no permit: queues
			sem.Release()
			run() // acquire runs and takes the permit
		},
		"mutex": func() {
			mu.TryLock()
			mu.WaitThen(lock) // held: queues
			mu.Unlock()
			run()
		},
	}
	avg := map[string]float64{}
	for name, cycle := range cycles {
		for i := 0; i < 64; i++ { // warm the FIFO and the slot pool
			cycle()
		}
		before := runs
		avg[name] = testing.AllocsPerRun(1000, cycle)
		if runs-before != 1001 { // AllocsPerRun adds one warm-up run
			t.Errorf("%s: continuation ran %d times, want 1001", name, runs-before)
		}
	}
	for name, a := range avg {
		if a != 0 {
			t.Errorf("%s: wait/signal allocates %v/op warm, want 0", name, a)
		}
	}
}
