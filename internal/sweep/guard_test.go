package sweep

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nwcache/internal/core"
	"nwcache/internal/exp/pool"
	"nwcache/internal/guard"
	"nwcache/internal/machine"
	"nwcache/internal/obs"
	"nwcache/internal/sim"
)

// chaosRetrier returns a retry budget generous enough to ride out the
// test plans but still bounded.
func chaosRetrier(seed uint64) *guard.Retrier {
	p := guard.DefaultRetryPolicy(seed)
	p.Base = time.Microsecond // keep chaos tests fast
	p.Cap = 50 * time.Microsecond
	return guard.NewRetrier(p)
}

func mustChaos(t *testing.T, text string) *guard.ChaosPlan {
	t.Helper()
	p, err := guard.ParseChaos(text)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Poison records round-trip through the STATE file, and a later "ok"
// record for the same key supersedes the quarantine (last wins).
func TestStatePoisonRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.state")
	sf, _, _, err := OpenState(path, testDigestHex, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.AppendPoison(stateKey(0), "panic", 42); err != nil {
		t.Fatal(err)
	}
	if err := sf.AppendPoison(stateKey(1), "some reason with spaces", 7); err != nil {
		t.Fatal(err)
	}
	sf.Close()

	_, done, _, err := OpenState(path, testDigestHex, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rec := done[stateKey(0)]; rec.Status != StatusPoison || rec.Reason != "panic" || rec.DurationNS != 42 {
		t.Fatalf("poison record replayed as %+v", rec)
	}
	if rec := done[stateKey(1)]; rec.Reason != "some-reason-with-spaces" {
		t.Fatalf("reason not flattened to a token: %+v", rec)
	}

	// A retry pass records the cell ok: the poison line is superseded.
	sf, _, _, err = OpenState(path, testDigestHex, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.Append(stateRec(0)); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	_, done, _, err = OpenState(path, testDigestHex, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rec := done[stateKey(0)]; rec.Status != StatusOK {
		t.Fatalf("ok record did not supersede poison: %+v", rec)
	}
}

// STATE appends survive injected short writes, failed fsyncs, and an
// ENOSPC window: every append that returned nil is replayed intact,
// and the log parses cleanly.
func TestStateAppendUnderChaos(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.state")
	plan := mustChaos(t, `
		write short rate=0.2
		sync fail nth=2
		sync fail nth=5
		write enospc from=7 until=9
		read eintr rate=0.1
	`)
	fsys := guard.NewChaosFS(nil, plan, 7, dir)
	retry := chaosRetrier(7)

	sf, _, _, err := OpenStateOn(fsys, retry, path, testDigestHex, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := sf.Append(stateRec(i)); err != nil {
			t.Fatalf("append %d under chaos: %v", i, err)
		}
	}
	sf.Close()

	stats := fsys.Stats()
	if stats.ShortWrites == 0 && stats.SyncFails == 0 && stats.ENOSPCs == 0 {
		t.Fatal("chaos plan injected nothing — the test proves nothing")
	}

	// Replay on the clean filesystem: every record must be there.
	_, done, truncated, err := OpenState(path, testDigestHex, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if truncated != 0 || len(done) != n {
		t.Fatalf("replay after chaos: done=%d truncated=%d, want %d/0", len(done), truncated, n)
	}
	for i := 0; i < n; i++ {
		if done[stateKey(i)] != stateRec(i) {
			t.Fatalf("record %d corrupted: %+v", i, done[stateKey(i)])
		}
	}
}

// A torn append that exhausts its retry budget leaves a clean log
// behind: replay drops the unterminated tail, truncates to the last
// verified record, and resume appends from there.
func TestStateTornTailTruncatesCleanly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.state")
	sf, _, _, err := OpenState(path, testDigestHex, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.Append(stateRec(0)); err != nil {
		t.Fatal(err)
	}
	sf.Close()

	// Simulate the torn final append of a killed process: a prefix of a
	// record with no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, "%s ok sha256:dead", stateKey(1))
	f.Close()
	before, _ := os.ReadFile(path)

	sf, done, truncated, err := OpenState(path, testDigestHex, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if truncated != 1 || len(done) != 1 {
		t.Fatalf("torn tail: done=%d truncated=%d, want 1/1", len(done), truncated)
	}
	if err := sf.Append(stateRec(1)); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	after, _ := os.ReadFile(path)
	if bytes.Contains(after, []byte("sha256:dead")) {
		t.Fatalf("torn bytes survived the truncation:\nbefore=%q\nafter=%q", before, after)
	}
	_, done, truncated, err = OpenState(path, testDigestHex, 0, 1)
	if err != nil || truncated != 0 || len(done) != 2 {
		t.Fatalf("post-repair replay: done=%d truncated=%d err=%v", len(done), truncated, err)
	}
}

// Cache Put rides out torn writes, failed fsyncs, and rename faults;
// the stored entry digest-verifies on a clean read.
func TestCachePutUnderChaos(t *testing.T) {
	dir := t.TempDir()
	plan := mustChaos(t, `
		write short rate=0.3
		sync fail nth=1
		rename fail nth=1
	`)
	fsys := guard.NewChaosFS(nil, plan, 11, dir)
	c, err := OpenCacheOn(fsys, chaosRetrier(11), dir)
	if err != nil {
		t.Fatal(err)
	}
	cell := core.Cell{App: "gauss", Cfg: core.DefaultConfig()}
	res := &core.Result{ExecTime: 12345}
	for i := 0; i < 8; i++ {
		cc := cell
		cc.Cfg.Seed = int64(i + 1)
		if err := c.Put(&Entry{Record: NewRecord(cc, res, nil, nil)}); err != nil {
			t.Fatalf("put %d under chaos: %v", i, err)
		}
	}
	stats := fsys.Stats()
	if stats.ShortWrites+stats.SyncFails+stats.RenameFails == 0 {
		t.Fatal("chaos plan injected nothing")
	}
	// Clean-side verification.
	clean, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		cc := cell
		cc.Cfg.Seed = int64(i + 1)
		if _, ok := clean.Get(cc.Key()); !ok {
			t.Fatalf("entry %d missing or corrupt after chaos puts", i)
		}
	}
}

// A deliberately panicking cell is quarantined, not fatal: the shard
// finishes its other cells and reports ErrPoisoned; a -retry-poison
// pass (without the sabotage) completes the sweep, and the merged
// artifacts are byte-identical to a never-poisoned run.
func TestRunnerPanicQuarantineAndRetry(t *testing.T) {
	s := runnerSpec(t)
	dir := t.TempDir()

	var poisons []string
	r := &Runner{
		Spec: s, Shard: 0, Shards: 1, Dir: dir,
		Sabotage: func(c core.Cell) bool {
			return c.Kind.String() == "standard" && c.Cfg.Seed == 1
		},
		OnEvent: func(ev obs.Event) {
			if ev.Type == obs.EventCellPoisoned {
				poisons = append(poisons, ev.Reason)
			}
		},
	}
	sum, err := r.Run()
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("sabotaged run: err=%v sum=%+v, want ErrPoisoned", err, sum)
	}
	if sum.Poisoned != 1 || !sum.Done {
		t.Fatalf("sabotaged run summary: %+v", sum)
	}
	if len(poisons) != 1 || poisons[0] != "panic" {
		t.Fatalf("poison events %v, want one panic", poisons)
	}
	if !strings.Contains(sum.String(), "(1 poisoned)") {
		t.Fatalf("summary line misses poison count: %q", sum.String())
	}
	// The shard must not have emitted outputs with a hole in them.
	if _, err := os.Stat(filepath.Join(dir, "shard-0of1.ndjson")); !os.IsNotExist(err) {
		t.Fatal("poisoned shard emitted its NDJSON output")
	}

	// Without -retry-poison the quarantine holds on resume.
	r2 := &Runner{Spec: s, Shard: 0, Shards: 1, Dir: dir}
	sum, err = r2.Run()
	if !errors.Is(err, ErrPoisoned) || sum.Poisoned != 1 || sum.Fresh != 0 {
		t.Fatalf("resume without retry: err=%v sum=%+v", err, sum)
	}

	// The retry pass (sabotage fixed) heals the cell and completes.
	r3 := &Runner{Spec: s, Shard: 0, Shards: 1, Dir: dir, RetryPoison: true}
	sum, err = r3.Run()
	if err != nil {
		t.Fatalf("retry pass: %v", err)
	}
	if sum.PoisonRetried != 1 || sum.Poisoned != 0 || !sum.Done {
		t.Fatalf("retry pass summary: %+v", sum)
	}

	var out bytes.Buffer
	if _, err := Merge(s, dir, 1, &out); err != nil {
		t.Fatal(err)
	}
	// Byte-identity against a clean reference sweep.
	ref := t.TempDir()
	runSweep(t, s, ref, 1, 0)
	refND, refMan, _ := MergedPaths(ref)
	gotND, gotMan, _ := MergedPaths(dir)
	if !bytes.Equal(readFileT(t, refND), readFileT(t, gotND)) {
		t.Fatal("merged NDJSON differs after poison-retry")
	}
	if !bytes.Equal(readFileT(t, refMan), readFileT(t, gotMan)) {
		t.Fatal("merged manifest differs after poison-retry")
	}
}

// A sharded sweep under seeded host faults — torn writes, failed
// fsyncs, EINTR reads, rename faults — with mid-sweep interrupts still
// resumes to completion with byte-identical merged artifacts. This is
// the chaos gate's core property.
func TestRunnerResumeByteIdenticalUnderChaos(t *testing.T) {
	s := runnerSpec(t)
	ref, dir := t.TempDir(), t.TempDir()
	runSweep(t, s, ref, 1, 0)

	plan := mustChaos(t, `
		write short rate=0.1
		sync fail nth=3
		sync fail nth=9
		read eintr rate=0.05
		rename fail nth=2
	`)
	const shards = 2
	for i := 0; i < shards; i++ {
		fsys := guard.NewChaosFS(nil, plan, uint64(31+i), dir)
		for {
			r := &Runner{
				Spec: s, Shard: i, Shards: shards, Dir: dir,
				MaxFresh: 1, // interrupt after every fresh cell
				FS:       fsys,
				Retry:    chaosRetrier(uint64(31 + i)),
			}
			_, err := r.Run()
			if errors.Is(err, ErrIncomplete) {
				continue
			}
			if err != nil {
				t.Fatalf("shard %d under chaos: %v", i, err)
			}
			break
		}
		st := fsys.Stats()
		if st.ShortWrites+st.SyncFails+st.ReadFails+st.RenameFails == 0 {
			t.Fatalf("shard %d: chaos injected nothing", i)
		}
	}
	var out bytes.Buffer
	if _, err := Merge(s, dir, shards, &out); err != nil {
		t.Fatal(err)
	}

	refND, refMan, _ := MergedPaths(ref)
	gotND, gotMan, _ := MergedPaths(dir)
	if !bytes.Equal(readFileT(t, refND), readFileT(t, gotND)) {
		t.Fatal("merged NDJSON differs between clean and chaos-resumed sweeps")
	}
	if !bytes.Equal(readFileT(t, refMan), readFileT(t, gotMan)) {
		t.Fatal("merged manifest differs between clean and chaos-resumed sweeps")
	}
}

// The shard and merged manifests are written through the filesystem
// seam under the retry budget: an ENOSPC on either write is retried, and
// the merged artifacts stay byte-identical to a clean sweep's.
func TestManifestWritesRideTheFSSeam(t *testing.T) {
	s := runnerSpec(t)
	ref, dir := t.TempDir(), t.TempDir()
	runSweep(t, s, ref, 1, 0)
	refND, refMan, _ := MergedPaths(ref)
	gotND, gotMan, _ := MergedPaths(dir)

	// Each chaos FS is scoped to one manifest file, so its first write
	// is the one that fails.
	plan := mustChaos(t, "write enospc from=1 until=2")
	shardFS := guard.NewChaosFS(nil, plan, 1, filepath.Join(dir, "shard-0of1.manifest.json"))
	if _, err := (&Runner{Spec: s, Shards: 1, Dir: dir, FS: shardFS, Retry: chaosRetrier(1)}).Run(); err != nil {
		t.Fatal(err)
	}
	mergeFS := guard.NewChaosFS(nil, plan, 2, gotMan)
	if _, err := MergeOn(mergeFS, chaosRetrier(2), s, dir, 1, nil); err != nil {
		t.Fatal(err)
	}
	for name, fsys := range map[string]*guard.ChaosFS{"shard": shardFS, "merged": mergeFS} {
		if n := fsys.Stats().ENOSPCs; n != 1 {
			t.Errorf("%s manifest write saw %d injected faults, want 1", name, n)
		}
	}
	if !bytes.Equal(readFileT(t, refND), readFileT(t, gotND)) {
		t.Fatal("merged NDJSON differs after a faulted manifest write")
	}
	if !bytes.Equal(readFileT(t, refMan), readFileT(t, gotMan)) {
		t.Fatal("merged manifest differs after a faulted manifest write")
	}
}

// Draining stops cell admission at the next boundary: in-flight cells
// checkpoint, Run reports ErrIncomplete, and a later run resumes to
// completion.
func TestRunnerDrain(t *testing.T) {
	s := runnerSpec(t)
	dir := t.TempDir()
	admitted := 0
	r := &Runner{
		Spec: s, Shard: 0, Shards: 1, Dir: dir,
		Draining: func() bool { return admitted >= 2 },
		OnEvent: func(ev obs.Event) {
			if ev.Type == obs.EventCellStart {
				admitted++
			}
		},
	}
	sum, err := r.Run()
	if !errors.Is(err, ErrIncomplete) {
		t.Fatalf("draining run: err=%v sum=%+v, want ErrIncomplete", err, sum)
	}
	if sum.Done || sum.Fresh == 0 || sum.Fresh >= s.NumCells() {
		t.Fatalf("draining run summary: %+v", sum)
	}
	// Resume without the drain finishes the shard.
	r2 := &Runner{Spec: s, Shard: 0, Shards: 1, Dir: dir}
	sum, err = r2.Run()
	if err != nil || !sum.Done {
		t.Fatalf("post-drain resume: err=%v sum=%+v", err, sum)
	}
}

// A cell that blows its wall-clock budget is aborted through the
// engine probe and quarantined with the "timeout" verdict; the retry
// pass (budget lifted) completes the sweep.
func TestRunnerWatchdogTimeout(t *testing.T) {
	s := runnerSpec(t)
	dir := t.TempDir()
	var poisons []string
	r := &Runner{
		Spec: s, Shard: 0, Shards: 1, Dir: dir,
		Pool: nil,
		Guard: guard.CellGuard{
			Budget: time.Nanosecond, // every cell overruns instantly
			Poll:   time.Millisecond,
			Grace:  10 * time.Second, // aborts must land well within this
		},
		OnEvent: func(ev obs.Event) {
			if ev.Type == obs.EventCellPoisoned {
				poisons = append(poisons, ev.Reason)
			}
		},
	}
	sum, err := r.Run()
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("budgeted run: err=%v sum=%+v, want ErrPoisoned", err, sum)
	}
	if sum.Poisoned == 0 {
		t.Fatalf("budgeted run summary: %+v", sum)
	}
	for _, reason := range poisons {
		if reason != "timeout" {
			t.Fatalf("poison reasons %v, want all timeout", poisons)
		}
	}

	// Retry without a budget completes and matches a clean run.
	r2 := &Runner{Spec: s, Shard: 0, Shards: 1, Dir: dir, RetryPoison: true}
	sum, err = r2.Run()
	if err != nil || !sum.Done || sum.Poisoned != 0 {
		t.Fatalf("retry pass: err=%v sum=%+v", err, sum)
	}
	var out bytes.Buffer
	if _, err := Merge(s, dir, 1, &out); err != nil {
		t.Fatal(err)
	}
}

// A supervised cell whose clock stops — a callback that re-schedules
// itself at the same instant — ends stalled: the watchdog's abort lands
// at the engine's next probe check although simulated time never moves
// again, and no goroutine of the cell outlives the verdict. The spin
// ends when the test does, so an abort that never lands fails the test
// instead of leaving a goroutine spinning.
func TestStuckClockCellEndsStalled(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	var release atomic.Bool
	defer release.Store(true)
	probe := &sim.Progress{Every: sim.DefaultProbeEvery}
	cell := core.Cell{App: "gauss", Cfg: core.DefaultConfig(), Probe: probe,
		Obs: func(_ core.Cell, m *machine.Machine) {
			var spin func()
			spin = func() {
				if !release.Load() {
					m.E.At(m.E.Now(), spin)
				}
			}
			m.E.At(1000, spin)
		}}
	fut, _ := pool.New(1).Submit(cell)
	g := guard.CellGuard{Stall: 50 * time.Millisecond, Poll: 5 * time.Millisecond, Grace: 5 * time.Second}
	verdict := g.Supervise(func(d time.Duration) bool {
		_, _, ok := fut.WaitTimeout(d)
		return ok
	}, probe)
	if verdict != guard.VerdictStalled {
		t.Fatalf("verdict %v, want stalled", verdict)
	}
	var aerr *sim.AbortError
	if _, err := fut.Wait(); !errors.As(err, &aerr) || aerr.Reason != "stalled" || aerr.Now != 1000 {
		t.Fatalf("cell returned %v, want a stalled abort at t=1000", err)
	}
	// The cell's goroutine closes its future just before it exits.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the verdict, %d before", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
}
