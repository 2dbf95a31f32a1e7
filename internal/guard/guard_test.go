package guard

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	transient := []error{
		syscall.EINTR,
		syscall.EAGAIN,
		syscall.ENOSPC,
		io.ErrShortWrite,
		fmt.Errorf("wrapped: %w", syscall.ENOSPC),
		MarkTransient(errors.New("chaos injected")),
		fmt.Errorf("outer: %w", MarkTransient(errors.New("inner"))),
	}
	for _, err := range transient {
		if Classify(err) != Transient {
			t.Errorf("Classify(%v) = terminal, want transient", err)
		}
	}
	terminal := []error{
		nil,
		syscall.EIO, // fsyncgate: never blind-retry a failed fsync
		os.ErrNotExist,
		os.ErrPermission,
		errors.New("parse error"),
	}
	for _, err := range terminal {
		if Classify(err) == Transient {
			t.Errorf("Classify(%v) = transient, want terminal", err)
		}
	}
	if Transient.String() != "transient" || Terminal.String() != "terminal" {
		t.Errorf("Class.String broken: %v %v", Transient, Terminal)
	}
}

func TestRetrierSucceedsAfterTransientBlips(t *testing.T) {
	r := NewRetrier(RetryPolicy{Max: 5, Base: time.Microsecond, Seed: 1, Sleep: func(time.Duration) {}})
	calls := 0
	err := r.Do(func() error {
		calls++
		if calls < 3 {
			return syscall.EINTR
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("Do = %v after %d calls, want success on call 3", err, calls)
	}
	st := r.Stats()
	if st.Attempts != 3 || st.Retries != 2 || st.GaveUp != 0 {
		t.Fatalf("stats = %+v, want {3 2 0}", st)
	}
}

func TestRetrierStopsOnTerminal(t *testing.T) {
	r := NewRetrier(RetryPolicy{Max: 5, Base: time.Microsecond, Seed: 1, Sleep: func(time.Duration) {}})
	calls := 0
	boom := errors.New("corrupt header")
	if err := r.Do(func() error { calls++; return boom }); !errors.Is(err, boom) {
		t.Fatalf("Do = %v, want %v", err, boom)
	}
	if calls != 1 {
		t.Fatalf("terminal error retried %d times, want 1 attempt", calls)
	}
}

func TestRetrierExhaustsBudget(t *testing.T) {
	r := NewRetrier(RetryPolicy{Max: 3, Base: time.Microsecond, Seed: 1, Sleep: func(time.Duration) {}})
	calls := 0
	err := r.Do(func() error { calls++; return syscall.ENOSPC })
	if calls != 3 {
		t.Fatalf("made %d attempts, want 3", calls)
	}
	if err == nil || !errors.Is(err, syscall.ENOSPC) || !strings.Contains(err.Error(), "gave up after 3 attempts") {
		t.Fatalf("budget-exhausted error = %v", err)
	}
	if st := r.Stats(); st.GaveUp != 1 {
		t.Fatalf("GaveUp = %d, want 1", st.GaveUp)
	}
}

func TestRetrierNilRunsOnce(t *testing.T) {
	var r *Retrier
	calls := 0
	if err := r.Do(func() error { calls++; return syscall.EINTR }); !errors.Is(err, syscall.EINTR) {
		t.Fatalf("nil retrier Do = %v, want EINTR passthrough", err)
	}
	if calls != 1 {
		t.Fatalf("nil retrier made %d calls, want 1", calls)
	}
	if st := r.Stats(); st != (RetryStats{}) {
		t.Fatalf("nil retrier stats = %+v, want zero", st)
	}
}

func TestRetrierJitterDeterministic(t *testing.T) {
	record := func(seed uint64) []time.Duration {
		var sleeps []time.Duration
		r := NewRetrier(RetryPolicy{
			Max: 6, Base: 10 * time.Millisecond, Cap: 100 * time.Millisecond, Seed: seed,
			Sleep: func(d time.Duration) { sleeps = append(sleeps, d) },
		})
		_ = r.Do(func() error { return syscall.EINTR })
		return sleeps
	}
	a, b := record(42), record(42)
	if len(a) != 5 {
		t.Fatalf("recorded %d sleeps, want 5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sleep %d differs across same-seed runs: %v vs %v", i, a[i], b[i])
		}
	}
	c := record(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter schedules")
	}
	// Backoff grows and respects the cap (jitter keeps it in [base/2, cap]).
	for i, d := range a {
		lo := (10 * time.Millisecond) << i / 2
		if lo > 50*time.Millisecond {
			lo = 50 * time.Millisecond
		}
		if d < lo || d > 100*time.Millisecond {
			t.Fatalf("sleep %d = %v outside [%v, 100ms]", i, d, lo)
		}
	}
}

func TestRetryWriterResumesShortWrites(t *testing.T) {
	var buf bytes.Buffer
	sw := &shortWriter{w: &buf, max: 3}
	rw := RetryWriter{W: sw, R: NewRetrier(RetryPolicy{Max: 20, Base: time.Microsecond, Seed: 7, Sleep: func(time.Duration) {}})}
	payload := []byte("the quick brown fox jumps over the lazy dog")
	n, err := rw.Write(payload)
	if err != nil || n != len(payload) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if buf.String() != string(payload) {
		t.Fatalf("payload corrupted across resumed writes: %q", buf.String())
	}
}

// shortWriter writes at most max bytes per call, alternating between
// silent short writes and explicit transient errors.
type shortWriter struct {
	w     io.Writer
	max   int
	calls int
}

func (s *shortWriter) Write(p []byte) (int, error) {
	s.calls++
	if len(p) > s.max {
		p = p[:s.max]
	}
	n, err := s.w.Write(p)
	if err != nil {
		return n, err
	}
	if s.calls%2 == 0 {
		return n, syscall.EINTR
	}
	return n, nil
}

func TestRetryReaderAbsorbsEINTR(t *testing.T) {
	src := &flakyReader{r: strings.NewReader("hello world"), failEvery: 2}
	rr := RetryReader{Rd: src, R: NewRetrier(RetryPolicy{Max: 5, Base: time.Microsecond, Seed: 3, Sleep: func(time.Duration) {}})}
	got, err := io.ReadAll(io.LimitReader(rr, 64))
	if err != nil || string(got) != "hello world" {
		t.Fatalf("ReadAll = %q, %v", got, err)
	}
}

type flakyReader struct {
	r         io.Reader
	failEvery int
	calls     int
}

func (f *flakyReader) Read(p []byte) (int, error) {
	f.calls++
	if f.failEvery > 0 && f.calls%f.failEvery == 1 {
		return 0, syscall.EINTR
	}
	if len(p) > 4 {
		p = p[:4]
	}
	return f.r.Read(p)
}

func TestChaosPlanRoundTrip(t *testing.T) {
	src := `
# host fault schedule
write enospc from=9 until=12
sync fail nth=3
sync fail nth=1
write short rate=0.25
read eintr rate=0.1
rename fail nth=2
sync fail rate=0.05
`
	p, err := ParseChaos(src)
	if err != nil {
		t.Fatalf("ParseChaos: %v", err)
	}
	if len(p.SyncFailNth) != 2 || p.SyncFailNth[0] != 1 || p.SyncFailNth[1] != 3 {
		t.Fatalf("SyncFailNth not canonically sorted: %v", p.SyncFailNth)
	}
	canon := p.String()
	p2, err := ParseChaos(canon)
	if err != nil {
		t.Fatalf("ParseChaos(canon): %v", err)
	}
	if p2.String() != canon {
		t.Fatalf("canon not a fixpoint:\n%s\nvs\n%s", canon, p2.String())
	}
}

func TestChaosPlanParseErrors(t *testing.T) {
	for _, bad := range []string{
		"sync fail",                   // incomplete
		"sync fail nth=0",             // not positive
		"sync fail nth=2 rate=0.5",    // both
		"write short rate=1.5",        // rate out of range
		"write enospc from=5 until=5", // empty window
		"write enospc from=5",         // missing until
		"disk read-error rate=0.5",    // wrong language (fault plan)
		"read eintr rate=x",           // not a number
		"rename fail nth=1 nth=2",     // duplicate key
		"read eintr rate",             // malformed kv
	} {
		if _, err := ParseChaos(bad); err == nil {
			t.Errorf("ParseChaos(%q) succeeded, want error", bad)
		}
	}
}

func TestChaosFSFailNthSync(t *testing.T) {
	dir := t.TempDir()
	plan, err := ParseChaos("sync fail nth=2")
	if err != nil {
		t.Fatal(err)
	}
	cfs := NewChaosFS(nil, plan, 1, dir)
	f, err := cfs.Create(filepath.Join(dir, "x"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 1 failed: %v", err)
	}
	err = f.Sync()
	if err == nil || !IsTransient(err) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("sync 2 = %v, want transient ENOSPC", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 3 failed: %v", err)
	}
	st := cfs.Stats()
	if st.Syncs != 3 || st.SyncFails != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestChaosFSENOSPCWindowAndRetry(t *testing.T) {
	dir := t.TempDir()
	plan, err := ParseChaos("write enospc from=2 until=4")
	if err != nil {
		t.Fatal(err)
	}
	cfs := NewChaosFS(nil, plan, 1, dir)
	f, err := cfs.Create(filepath.Join(dir, "x"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("a")); err != nil { // write 1: ok
		t.Fatalf("write 1: %v", err)
	}
	for i := 2; i < 4; i++ { // writes 2,3: in window
		if _, err := f.Write([]byte("b")); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("write %d = %v, want ENOSPC", i, err)
		}
	}
	// A Retrier crosses the window because every attempt advances the
	// op counter — the property that lets sweeps ride out ENOSPC blips.
	r := NewRetrier(RetryPolicy{Max: 5, Base: time.Microsecond, Seed: 2, Sleep: func(time.Duration) {}})
	if err := r.Do(func() error { _, werr := f.Write([]byte("c")); return werr }); err != nil {
		t.Fatalf("retried write across window: %v", err)
	}
}

func TestChaosFSTornWriteLandsPrefix(t *testing.T) {
	dir := t.TempDir()
	plan, err := ParseChaos("write short rate=1")
	if err != nil {
		t.Fatal(err)
	}
	cfs := NewChaosFS(nil, plan, 99, dir)
	f, err := cfs.OpenFile(filepath.Join(dir, "x"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payload := []byte("0123456789")
	n, err := f.WriteAt(payload, 0)
	if err == nil || !IsTransient(err) {
		t.Fatalf("torn write = %d, %v; want transient error", n, err)
	}
	if n < 1 || n >= len(payload) {
		t.Fatalf("torn write landed %d bytes, want a strict prefix", n)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(payload[:n]) {
		t.Fatalf("on-disk %q != reported prefix %q", raw, payload[:n])
	}
}

func TestChaosFSScopeGuard(t *testing.T) {
	root := t.TempDir()
	outside := t.TempDir()
	plan, err := ParseChaos("write short rate=1\nread eintr rate=1\nsync fail rate=1")
	if err != nil {
		t.Fatal(err)
	}
	cfs := NewChaosFS(nil, plan, 5, root)
	// Out-of-scope file: all faults bypassed.
	f, err := cfs.Create(filepath.Join(outside, "safe"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("payload")); err != nil {
		t.Fatalf("out-of-scope write hit chaos: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("out-of-scope sync hit chaos: %v", err)
	}
	f.Close()
	if _, err := cfs.ReadFile(filepath.Join(outside, "safe")); err != nil {
		t.Fatalf("out-of-scope read hit chaos: %v", err)
	}
	if st := cfs.Stats(); st.Writes != 0 || st.Reads != 0 || st.Syncs != 0 {
		t.Fatalf("out-of-scope ops counted: %+v", st)
	}
	// In-scope file: faults apply.
	g, err := cfs.Create(filepath.Join(root, "hot"))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Write([]byte("payload")); err == nil {
		t.Fatal("in-scope write dodged chaos")
	}
}

func TestChaosFSDeterministic(t *testing.T) {
	run := func() []string {
		dir := t.TempDir()
		plan, err := ParseChaos("write short rate=0.5\nsync fail rate=0.5")
		if err != nil {
			t.Fatal(err)
		}
		cfs := NewChaosFS(nil, plan, 1234, dir)
		f, err := cfs.OpenFile(filepath.Join(dir, "x"), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var outcomes []string
		for i := 0; i < 32; i++ {
			if _, err := f.WriteAt([]byte("0123456789"), 0); err != nil {
				outcomes = append(outcomes, "wfail")
			} else {
				outcomes = append(outcomes, "wok")
			}
			if err := f.Sync(); err != nil {
				outcomes = append(outcomes, "sfail")
			} else {
				outcomes = append(outcomes, "sok")
			}
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault sequence diverged at op %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestSuperviseOK(t *testing.T) {
	g := CellGuard{Budget: time.Minute, Stall: time.Minute, Poll: time.Millisecond}
	done := make(chan struct{})
	close(done)
	v := g.Supervise(waitOn(done), &fakeProber{})
	if v != VerdictOK {
		t.Fatalf("verdict = %v, want OK", v)
	}
}

func TestSuperviseTimeoutAbortsViaProbe(t *testing.T) {
	g := CellGuard{Budget: 5 * time.Millisecond, Poll: time.Millisecond, Grace: time.Second}
	p := &fakeProber{}
	done := make(chan struct{})
	p.onAbort = func() { close(done) } // cell honors the abort
	v := g.Supervise(waitOn(done), p)
	if v != VerdictTimeout {
		t.Fatalf("verdict = %v, want timeout", v)
	}
	if got := p.reason.Load(); got == nil || *got != "timeout" {
		t.Fatalf("abort reason = %v, want timeout", got)
	}
}

func TestSuperviseStalledVsAdvancing(t *testing.T) {
	// Advancing sim clock: the stall window never fires, the budget does.
	adv := &fakeProber{}
	adv.advance = true
	g := CellGuard{Budget: 30 * time.Millisecond, Stall: 10 * time.Millisecond, Poll: time.Millisecond, Grace: time.Second}
	done := make(chan struct{})
	adv.onAbort = func() { close(done) }
	if v := g.Supervise(waitOn(done), adv); v != VerdictTimeout {
		t.Fatalf("advancing cell verdict = %v, want timeout (budget, not stall)", v)
	}
	// Frozen sim clock: the stall window fires first.
	frozen := &fakeProber{}
	done2 := make(chan struct{})
	frozen.onAbort = func() { close(done2) }
	g2 := CellGuard{Budget: time.Minute, Stall: 5 * time.Millisecond, Poll: time.Millisecond, Grace: time.Second}
	if v := g2.Supervise(waitOn(done2), frozen); v != VerdictStalled {
		t.Fatalf("frozen cell verdict = %v, want stalled", v)
	}
}

func TestSuperviseWedged(t *testing.T) {
	g := CellGuard{Budget: 2 * time.Millisecond, Poll: time.Millisecond, Grace: 5 * time.Millisecond}
	p := &fakeProber{} // ignores the abort
	never := make(chan struct{})
	if v := g.Supervise(waitOn(never), p); v != VerdictWedged {
		t.Fatalf("verdict = %v, want wedged", v)
	}
	if VerdictWedged.String() != "wedged" || VerdictStalled.String() != "stalled" {
		t.Fatal("verdict tokens broken")
	}
}

func TestCellGuardDisabled(t *testing.T) {
	if (CellGuard{}).Enabled() {
		t.Fatal("zero CellGuard reports enabled")
	}
	if !(CellGuard{Budget: time.Second}).Enabled() || !(CellGuard{Stall: time.Second}).Enabled() {
		t.Fatal("configured CellGuard reports disabled")
	}
}

// Driven by a fake clock, the watchdog verdict depends only on elapsed
// time, not on where completion falls relative to a poll: a cell that
// completes over budget inside its first poll is a timeout, one that
// completes in budget is OK, and a frozen simulated clock is a stall.
func TestWatchdogVerdictFakeClock(t *testing.T) {
	cases := []struct {
		name   string
		g      CellGuard
		elapse time.Duration // fake time each wait consumes
		doneAt int           // wait call that reports completion; 0 = only after an abort
		want   Verdict
		abort  string // expected abort reason, "" = none requested
	}{
		{"over-budget completion", CellGuard{Budget: 10 * time.Millisecond, Poll: time.Second},
			20 * time.Millisecond, 1, VerdictTimeout, ""},
		{"in-budget completion", CellGuard{Budget: 10 * time.Millisecond, Poll: time.Second},
			5 * time.Millisecond, 1, VerdictOK, ""},
		{"stall", CellGuard{Budget: time.Hour, Stall: 3 * time.Millisecond, Poll: time.Millisecond},
			time.Millisecond, 0, VerdictStalled, "stalled"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			now := time.Unix(0, 0)
			tc.g.Now = func() time.Time { return now }
			p := &fakeProber{} // frozen simulated clock
			calls := 0
			wait := func(time.Duration) bool {
				calls++
				now = now.Add(tc.elapse)
				return calls == tc.doneAt || p.reason.Load() != nil
			}
			if v := tc.g.Supervise(wait, p); v != tc.want {
				t.Fatalf("verdict = %v, want %v", v, tc.want)
			}
			got := ""
			if r := p.reason.Load(); r != nil {
				got = *r
			}
			if got != tc.abort {
				t.Fatalf("abort reason = %q, want %q", got, tc.abort)
			}
		})
	}
}

// waitOn adapts a done channel to Supervise's wait seam with a real
// timer: these tests drive the poll loop end to end, and each verdict
// they expect is separated from the others by several poll periods. The
// verdict rule itself is pinned without a wall clock by
// TestWatchdogVerdictFakeClock.
func waitOn(done <-chan struct{}) func(time.Duration) bool {
	return func(d time.Duration) bool {
		select {
		case <-done:
			return true
		case <-time.After(d):
			return false
		}
	}
}

type fakeProber struct {
	tick    atomic.Int64
	advance bool
	reason  atomic.Pointer[string]
	onAbort func()
}

func (f *fakeProber) SimNow() int64 {
	if f.advance {
		return f.tick.Add(1)
	}
	return 0
}

func (f *fakeProber) RequestAbort(reason string) {
	r := reason
	f.reason.Store(&r)
	if f.onAbort != nil {
		f.onAbort()
	}
}
