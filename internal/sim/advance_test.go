package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// chainActor is a step chain that sleeps between marks, scheduling its
// next step with At. With inline set, each sleep first tries AdvanceTo
// and runs on in place when it succeeds, as a CPU's op chain does.
type chainActor struct {
	e      *Engine
	name   string
	gaps   []Time
	i      int
	inline bool
	log    *[]mark
	step   func()
}

func (a *chainActor) mark() {
	*a.log = append(*a.log, mark{a.name, a.e.Now(), a.e.Dispatched()})
}

func (a *chainActor) run() {
	for a.mark(); a.i < len(a.gaps); a.mark() {
		t := a.e.Now() + a.gaps[a.i]
		a.i++
		if a.inline && a.e.AdvanceTo(t) {
			continue
		}
		a.e.At(t, a.step)
		return
	}
}

// advanceScenario builds one randomized mix on e: plain chains sleeping
// short random gaps (zero gaps included), callbacks at random times that
// schedule same-instant follow-ups, and two chains that may run inline.
// Short gaps make the chains' targets collide with other events' times
// often.
func advanceScenario(e *Engine, seed int64, inline bool) *[]mark {
	rng := rand.New(rand.NewSource(seed))
	log := new([]mark)
	gaps := func(n int) []Time {
		g := make([]Time, n)
		for i := range g {
			g[i] = Time(rng.Intn(6))
		}
		return g
	}
	for i := 0; i < 3; i++ {
		name, g, k := "p"+string(rune('a'+i)), gaps(8), 0
		var step func()
		step = func() {
			if k > 0 {
				*log = append(*log, mark{name, e.Now(), e.Dispatched()})
			}
			if k < len(g) {
				e.At(e.Now()+g[k], step)
				k++
			}
		}
		e.At(0, step)
	}
	for i := 0; i < 10; i++ {
		name, t, follow := "f"+string(rune('a'+i)), Time(rng.Intn(40)), rng.Intn(2) == 0
		e.At(t, func() {
			*log = append(*log, mark{name, e.Now(), e.Dispatched()})
			if follow {
				e.At(e.Now(), func() { *log = append(*log, mark{name + "+", e.Now(), e.Dispatched()}) })
			}
		})
	}
	cb := &chainActor{e: e, name: "cb", gaps: gaps(20), inline: inline, log: log}
	cb.step = cb.run
	e.At(Time(rng.Intn(3)), cb.step)
	pc := &chainActor{e: e, name: "pc", gaps: gaps(20), inline: inline, log: log}
	pc.step = pc.run
	e.At(0, pc.step)
	return log
}

// An AdvanceTo chain is indistinguishable from the same chain
// scheduling each step: every actor marks the same (time, Dispatched)
// points in the same order.
func TestAdvanceToMatchesAtOrder(t *testing.T) {
	inlined := uint64(0)
	for seed := int64(1); seed <= 300; seed++ {
		var logs [2][]mark
		for k, inline := range []bool{false, true} {
			e := New()
			log := advanceScenario(e, seed, inline)
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			logs[k] = *log
			inlined += e.InlineAdvances()
		}
		if !reflect.DeepEqual(logs[0], logs[1]) {
			t.Fatalf("seed %d:\n   At %v\ninline %v", seed, logs[0], logs[1])
		}
	}
	if inlined == 0 {
		t.Fatal("no step ran inline: the comparison is vacuous")
	}
}

// Observation does not steer the shortcut: with a tick hook and a
// progress probe attached, the same steps inline as in a bare run, so
// every dispatch statistic matches.
func TestAdvanceToIgnoresObservation(t *testing.T) {
	type counts struct {
		dispatched, inline uint64
		heapPeak           int
		now                Time
	}
	run := func(seed int64, observed bool) counts {
		e := New()
		if observed {
			ticks := 0
			e.SetTick(3, func(Time) { ticks++ })
			e.AttachProgress(&Progress{Every: 5})
		}
		advanceScenario(e, seed, true)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return counts{e.Dispatched(), e.InlineAdvances(), e.heapPeak, e.Now()}
	}
	for seed := int64(1); seed <= 100; seed++ {
		if bare, obs := run(seed, false), run(seed, true); bare != obs {
			t.Fatalf("seed %d: bare %+v, observed %+v", seed, bare, obs)
		}
	}
}

// An abort lands at the same event whether the steps run inline or as
// scheduled events: an inline step counts as one dispatched event and
// takes the progress check itself, exactly at the count where the
// scheduled event would have taken it.
func TestAdvanceToKeepsEventBudget(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for every := uint64(5); every <= 80; every += 5 {
			var got [2][2]int64
			for k, inline := range []bool{false, true} {
				e := New()
				p := &Progress{Every: every}
				p.RequestAbort("test")
				e.AttachProgress(p)
				advanceScenario(e, seed, inline)
				var aerr *AbortError
				if err := e.Run(); !errors.As(err, &aerr) {
					t.Fatalf("seed %d every %d inline=%v: Run = %v, want an AbortError", seed, every, inline, err)
				}
				if aerr.Dispatched != every {
					t.Fatalf("seed %d every %d inline=%v: abort landed after %d events", seed, every, inline, aerr.Dispatched)
				}
				got[k] = [2]int64{int64(aerr.Dispatched), aerr.Now}
			}
			if got[0] != got[1] {
				t.Fatalf("seed %d every %d: abort landed at (dispatched, now) %v with At, %v inline",
					seed, every, got[0], got[1])
			}
		}
	}
}

// AdvanceTo refuses while other work is due first, and once an abort
// has landed: inside the event that took the abort, and after Run
// returned it.
func TestAdvanceToRefusals(t *testing.T) {
	e := New()
	e.At(10, func() {})
	if e.AdvanceTo(10) {
		t.Fatal("advanced over a heap event at the target time")
	}
	if !e.AdvanceTo(9) || e.Now() != 9 || e.Dispatched() != 1 || e.InlineAdvances() != 1 {
		t.Fatalf("advance to 9: now %d, dispatched %d", e.Now(), e.Dispatched())
	}
	e.At(9, func() {})
	if e.AdvanceTo(9) {
		t.Fatal("advanced over a ready event")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	p := &Progress{Every: 1}
	p.RequestAbort("test")
	e.AttachProgress(p)
	e.At(15, func() {
		if e.AdvanceTo(20) {
			t.Error("advanced inside the event that took the abort")
		}
	})
	var aerr *AbortError
	if err := e.Run(); !errors.As(err, &aerr) {
		t.Fatalf("Run = %v, want an AbortError", err)
	}
	if e.AdvanceTo(20) {
		t.Fatal("advanced an aborted engine")
	}
}
