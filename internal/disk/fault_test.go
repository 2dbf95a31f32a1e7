package disk

import (
	"testing"

	"nwcache/internal/fault"
	"nwcache/internal/sim"
)

func faultedDisk(t *testing.T, spec string) (*sim.Engine, *Disk, *fault.Injector) {
	t.Helper()
	e, d, _ := newDisk(Naive)
	plan, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(plan, 1, fault.Aggressive)
	d.SetFaults(inj, 0)
	return e, d, inj
}

// rate=1 makes every attempt fail: the read must pay the full exponential
// backoff schedule and then give up, with the retries accounted.
func TestReadRetriesThenGivesUp(t *testing.T) {
	e, d, inj := faultedDisk(t, "disk read-error rate=1 retries=3 backoff=100\n")
	eb, db, cfg := newDisk(Naive) // fault-free baseline
	var faulted, clean sim.Time
	var s fault.Stats
	script(e, read(d, 0, 5, 5, nil), do(func() {
		faulted = e.Now()
		s = inj.Stats // before the background prefetch retries too
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	script(eb, read(db, 0, 5, 5, nil), do(func() { clean = eb.Now() }))
	if err := eb.Run(); err != nil {
		t.Fatal(err)
	}
	// 3 retries = 4 attempts: the controller overhead is paid once, the
	// media access 4 times, plus backoffs 100+200+400.
	media := clean - cfg.CtrlOverhead
	if want := cfg.CtrlOverhead + 4*media + 700; faulted != want {
		t.Fatalf("faulted read took %d, want %d (clean %d)", faulted, want, clean)
	}
	if s.DiskReadErrors != 4 || s.DiskRetries != 3 || s.DiskReadGiveUps != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestBadBlockRemapSlipsHead(t *testing.T) {
	e, d, inj := faultedDisk(t, "disk bad-block disk=0 block=50\n")
	var head int64
	script(e, read(d, 0, 50, 50, nil), do(func() {
		head = d.headPos // before the background prefetch moves it
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if inj.Stats.BadBlockRemaps != 1 {
		t.Fatalf("remaps %d, want 1", inj.Stats.BadBlockRemaps)
	}
	if head != 57 {
		t.Fatalf("head at %d, want the spare track 57", head)
	}
}

func TestDegradedWindowMultipliesLatency(t *testing.T) {
	e, d, inj := faultedDisk(t, "disk degraded disk=0 from=0 until=100000000 mult=4\n")
	eb, db, cfg := newDisk(Naive)
	var faulted, clean sim.Time
	script(e, read(d, 0, 5, 5, nil), do(func() { faulted = e.Now() }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	script(eb, read(db, 0, 5, 5, nil), do(func() { clean = eb.Now() }))
	if err := eb.Run(); err != nil {
		t.Fatal(err)
	}
	// 4x the media access; the controller overhead is not degraded.
	if want := cfg.CtrlOverhead + 4*(clean-cfg.CtrlOverhead); faulted != want {
		t.Fatalf("degraded read took %d, want %d (clean %d)", faulted, want, clean)
	}
	if inj.Stats.DegradedAccs == 0 {
		t.Fatal("degraded access not counted")
	}
}

// Write-back media accesses inject write errors, not read errors.
func TestWritebackInjectsWriteErrors(t *testing.T) {
	e, d, inj := faultedDisk(t, "disk write-error rate=1 retries=1 backoff=50\n")
	script(e,
		write(e, d, 0, 7, 7, nil),
		// Let the write-back daemon drain (dwell + seek + rot + xfer + retries).
		sleep(e, 20_000_000),
	)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s := inj.Stats
	if s.DiskWriteErrors != 2 || s.DiskRetries != 1 || s.DiskWriteGiveUps != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.DiskReadErrors != 0 {
		t.Fatalf("write path drew read errors: %+v", s)
	}
}

// An attached injector with an empty plan must not change any timing.
func TestEmptyPlanLeavesTimingUntouched(t *testing.T) {
	e, d, inj := faultedDisk(t, "")
	eb, db, _ := newDisk(Naive)
	var faulted, clean sim.Time
	script(e, read(d, 0, 5, 5, nil), write(e, d, 0, 9, 9, nil), do(func() { faulted = e.Now() }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	script(eb, read(db, 0, 5, 5, nil), write(eb, db, 0, 9, 9, nil), do(func() { clean = eb.Now() }))
	if err := eb.Run(); err != nil {
		t.Fatal(err)
	}
	if faulted != clean {
		t.Fatalf("empty plan changed timing: %d vs %d", faulted, clean)
	}
	if inj.Stats != (fault.Stats{}) {
		t.Fatalf("empty plan accumulated stats: %+v", inj.Stats)
	}
}
