package machine

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"nwcache/internal/disk"
	"nwcache/internal/param"
	"nwcache/internal/sim"
)

// A run that leaves threads unfinished names each of them with what it
// waits on, whether the queues drained under them (a deadlock) or a
// supervisor's abort ended the run. Run then stops their
// coroutines: their defers run, and no goroutine outlives the run.
func TestStrandedThreadsReported(t *testing.T) {
	// spin keeps every thread blocked on its run-ahead queue for far
	// longer than the abort allows.
	spin := func(ctx *Ctx, proc int) {
		for i := 0; i < 10_000; i++ {
			ctx.Compute(100)
			ctx.Now()
		}
	}
	cases := []struct {
		name    string
		setup   func(e *sim.Engine)
		prog    func(ctx *Ctx, proc int)
		waitOn  string
		aborted bool // the run ends on the supervisor's abort
	}{{
		name: "deadlock",
		prog: func(ctx *Ctx, proc int) {
			if proc > 0 {
				ctx.Barrier()
			}
		},
		waitOn: "barrier",
	}, {
		name: "lock",
		prog: func(ctx *Ctx, proc int) {
			if proc == 0 {
				ctx.LockAcquire(3) // never released
				return
			}
			ctx.Compute(10)
			ctx.LockAcquire(3)
		},
		waitOn: "lock",
	}, {
		name: "abort",
		setup: func(e *sim.Engine) {
			p := &sim.Progress{Every: 1000}
			p.RequestAbort("timeout") // lands at the first probe check
			e.AttachProgress(p)
		},
		prog:    spin,
		waitOn:  "run-ahead",
		aborted: true,
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			goroutines := threadGoroutines()
			cfg := param.Default()
			m, err := New(cfg, NWCache, disk.Optimal)
			if err != nil {
				t.Fatal(err)
			}
			if tc.setup != nil {
				tc.setup(m.E)
			}
			unwound := 0
			_, err = m.Run(&testProg{name: tc.name, pages: 8, fn: func(ctx *Ctx, proc int) {
				defer func() { unwound++ }()
				tc.prog(ctx, proc)
			}})
			if err == nil {
				t.Fatal("Run reported no stranded thread")
			}
			if tc.aborted {
				var aerr *sim.AbortError
				if !errors.As(err, &aerr) || aerr.Reason != "timeout" {
					t.Fatalf("Run = %v, want a timeout AbortError", err)
				}
			}
			msg := err.Error()
			t.Log(msg)
			first := 1 // thread 0 finished in the deadlock cases
			if tc.aborted {
				first = 0
			}
			for proc := 0; proc < cfg.Nodes; proc++ {
				named := strings.Contains(msg, fmt.Sprintf("cpu%d waits on %s since t=", proc, tc.waitOn))
				if want := proc >= first; named != want {
					t.Errorf("cpu%d named stranded on %s: %v, want %v, in:\n%s", proc, tc.waitOn, named, want, msg)
				}
			}
			if unwound != cfg.Nodes {
				t.Errorf("%d of %d threads ran their defers", unwound, cfg.Nodes)
			}
			if n := threadGoroutines(); n != goroutines {
				t.Errorf("%d goroutines after Run, %d before: a thread outlived the run", n, goroutines)
			}
		})
	}
}

// threadGoroutines counts the goroutines running a thread body of this
// package, so a goroutine of another test that is still exiting cannot
// move the count.
func threadGoroutines() int {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	return strings.Count(string(buf[:n]), "nwcache/internal/machine.(*Ctx).start.func1(")
}

// A program's panic escapes Run to its caller, and the other threads,
// blocked at the time, are stopped on the way out.
func TestThreadPanicEscapesRun(t *testing.T) {
	goroutines := threadGoroutines()
	m, err := New(param.Default(), NWCache, disk.Optimal)
	if err != nil {
		t.Fatal(err)
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		m.Run(&testProg{name: "panic", pages: 8, fn: func(ctx *Ctx, proc int) {
			ctx.Compute(int64(100 * (proc + 1)))
			if proc == 3 {
				ctx.Now()
				panic("boom")
			}
			ctx.Barrier()
		}})
		return nil
	}()
	if got != "boom" {
		t.Fatalf("Run let through %v, want the program's panic", got)
	}
	if n := threadGoroutines(); n != goroutines {
		t.Errorf("%d goroutines after Run, %d before: a thread outlived the run", n, goroutines)
	}
}

// A thread's block/resume round trip is allocation-free: the resume
// event reuses a pooled slot, and the coroutine switch allocates nothing.
func TestThreadResumeAllocsAmortizedZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflated under -race")
	}
	m, err := New(param.Default(), NWCache, disk.Optimal)
	if err != nil {
		t.Fatal(err)
	}
	// Threads 0 and 1 sleep in lockstep, so neither runs on in place
	// (sim.Engine.AdvanceTo): every Now blocks and is resumed.
	var avg float64
	var resumes uint64
	done := false
	_, err = m.Run(&testProg{name: "resume", pages: 8, fn: func(ctx *Ctx, proc int) {
		roundTrip := func() {
			ctx.Compute(1)
			ctx.Now()
		}
		switch proc {
		case 0:
			for i := 0; i < 64; i++ { // warm the slot pool
				roundTrip()
			}
			r0 := m.ThreadResumes()
			avg = testing.AllocsPerRun(1000, roundTrip)
			resumes = m.ThreadResumes() - r0
			done = true
		case 1:
			for !done {
				roundTrip()
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resumes < 2000 {
		t.Fatalf("%d thread resumes over 1001 round trips of two threads: the threads ran on in place", resumes)
	}
	if avg != 0 {
		t.Fatalf("block/resume allocates %v/op warm, want 0", avg)
	}
}

// The stranded-thread report lists the unfinished threads in CPU order,
// each with its wait and the instant it blocked, and leaves out the
// threads that finished.
func TestStrandedReportIsStructured(t *testing.T) {
	m, err := New(param.Default(), NWCache, disk.Optimal)
	if err != nil {
		t.Fatal(err)
	}
	var at [2]sim.Time
	_, err = m.Run(&testProg{name: "dump", pages: 8, fn: func(ctx *Ctx, proc int) {
		switch proc {
		case 0:
			ctx.LockAcquire(3)
			ctx.Compute(50)
			at[0] = ctx.Now()
			ctx.Barrier() // blocked holding the lock: no other thread arrives
		case 1:
			ctx.Compute(10)
			at[1] = ctx.Now()
			ctx.LockAcquire(3) // blocked behind cpu0 forever
		}
	}})
	if err == nil {
		t.Fatal("Run reported no stranded thread")
	}
	if at[0] == at[1] {
		t.Fatalf("both threads blocked at t=%d: the report's times are not told apart", at[0])
	}
	want := fmt.Sprintf("threads stranded at t=%d:\n  cpu0 waits on barrier since t=%d\n  cpu1 waits on lock since t=%d",
		m.E.Now(), at[0], at[1])
	if msg := err.Error(); !strings.HasSuffix(msg, want) {
		t.Fatalf("report\n%s\ndoes not end with\n%s", msg, want)
	}
}

// Run stops a deadlocked thread by unwinding its coroutine from the wait:
// the code after the wait never runs, and the program's deferred calls
// run innermost first, before Run returns.
func TestStoppedThreadsRunDefers(t *testing.T) {
	m, err := New(param.Default(), NWCache, disk.Optimal)
	if err != nil {
		t.Fatal(err)
	}
	var ran []string
	returned := false
	_, err = m.Run(&testProg{name: "defers", pages: 8, fn: func(ctx *Ctx, proc int) {
		if proc != 1 {
			return
		}
		defer func() { ran = append(ran, fmt.Sprintf("outer (Run returned: %v)", returned)) }()
		func() {
			defer func() { ran = append(ran, "inner") }()
			ctx.Barrier() // the other threads have finished: never released
			ran = append(ran, "past the barrier")
		}()
	}})
	returned = true
	if err == nil || !strings.Contains(err.Error(), "cpu1 waits on barrier") {
		t.Fatalf("Run = %v, want cpu1 reported stranded on the barrier", err)
	}
	if want := []string{"inner", "outer (Run returned: false)"}; fmt.Sprint(ran) != fmt.Sprint(want) {
		t.Fatalf("stopped thread ran %q, want %q", ran, want)
	}
}

// The Program contract: Go state a thread writes before a Barrier, or
// before a LockRelease, is seen by another thread after its own Barrier,
// or after its LockAcquire of the same lock. The writer writes only once
// the clock has moved past the reader's call, so a Barrier or LockAcquire
// that returned with its operation only queued would read too early.
func TestSyncHandsOverGoState(t *testing.T) {
	for _, name := range []string{"barrier", "lock"} {
		lock := name == "lock"
		t.Run(name, func(t *testing.T) {
			shared, seen := 0, -1
			prog := &testProg{name: name, pages: 8, fn: func(ctx *Ctx, proc int) {
				switch {
				case proc == 0 && lock:
					ctx.LockAcquire(1)
					ctx.Compute(1000)
					ctx.Now()
					shared = 42
					ctx.LockRelease(1)
				case proc == 0:
					ctx.Compute(1000)
					ctx.Now()
					shared = 42
					ctx.Barrier()
				case lock:
					ctx.Compute(10)
					ctx.Now() // cpu0 holds the lock by now
					ctx.LockAcquire(1)
					seen = shared
					ctx.LockRelease(1)
				default:
					ctx.Barrier()
					seen = shared
				}
			}}
			runProg(t, smallCfg(), NWCache, disk.Naive, prog)
			if seen != 42 {
				t.Fatalf("cpu1 read %d after its %s, want the 42 cpu0 wrote before its own", seen, name)
			}
		})
	}
}
