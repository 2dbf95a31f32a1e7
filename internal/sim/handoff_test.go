package sim

import "testing"

// A panic inside a process body is not a kill: it propagates out of Run
// to the caller, which can recover the original value (the pool turns it
// into a quarantined cell).
func TestProcPanicPropagatesOutOfRun(t *testing.T) {
	e := New()
	e.Spawn("crasher", func(p *Proc) {
		p.Sleep(5)
		panic("proc crash")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		_ = e.Run()
	}()
	if got != "proc crash" {
		t.Fatalf("recovered %v, want the proc's panic value", got)
	}
}

// Two procs sleeping in alternation hand control across on every wake but
// one, so the switch count is exact:
//
//	wakes:    startA startB B@1 A@2 B@3 ... A@2n B@2n+1   = 2n+3
//	switches: startA startB     A@2 B@3 ... A@2n B@2n+1   = 2n+2
//
// Only B's first wake (B@1) fires while B itself drives. B@2n+1 is
// dispatched by A's completion, which no longer owns the driver.
func TestSwitchesPingPongExact(t *testing.T) {
	const n = 100
	e := New()
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(2)
		}
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(1)
		for i := 0; i < n; i++ {
			p.Sleep(2)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.WakeHandoffs(); got != 2*n+3 {
		t.Fatalf("wakes = %d, want %d", got, 2*n+3)
	}
	if got := e.Switches(); got != 2*n+2 {
		t.Fatalf("switches = %d, want %d", got, 2*n+2)
	}
}

// A lone sleeping proc always finds its own wake next: after the start
// (one switch in from Run) its sleep loop makes none.
func TestSwitchesSingleProcSleepLoop(t *testing.T) {
	e := New()
	var before, after uint64
	e.Spawn("sleeper", func(p *Proc) {
		before = e.Switches()
		for i := 0; i < 1000; i++ {
			p.Sleep(1)
		}
		after = e.Switches()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if before != 1 || after != before {
		t.Fatalf("switches before/after loop = %d/%d, want 1/1", before, after)
	}
}
