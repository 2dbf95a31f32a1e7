package sweep

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"nwcache/internal/core"
	"nwcache/internal/guard"
	"nwcache/internal/obs"
)

func fastCell(seed int64) core.Cell {
	cfg := core.DefaultConfig()
	cfg.Scale = 0.05
	cfg.Seed = seed
	return core.Cell{App: "gauss", Kind: core.Standard, Mode: core.Naive,
		Cfg: core.ApplyPaperMinFree(cfg, core.Standard, core.Naive)}
}

func runCell(t *testing.T, c core.Cell) *core.Result {
	t.Helper()
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCachePutGetRoundTrip(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := fastCell(1)
	res := runCell(t, c)
	e := &Entry{Record: NewRecord(c, res, nil, nil), DurationNS: 123}
	if err := cache.Put(e); err != nil {
		t.Fatal(err)
	}
	got, ok := cache.Get(c.Key())
	if !ok {
		t.Fatal("stored entry missed")
	}
	if got.Digest != e.Digest || got.DurationNS != 123 || ResultDigest(got.Result) != ResultDigest(res) {
		t.Fatalf("round trip mutated the entry: %+v", got)
	}
	if _, ok := cache.Get(stateKey(7)); ok {
		t.Fatal("hit on a never-stored key")
	}
	hits, misses, bad, stores := cache.Stats()
	if hits != 1 || misses != 1 || bad != 0 || stores != 1 {
		t.Fatalf("Stats = %d/%d/%d/%d, want 1/1/0/1", hits, misses, bad, stores)
	}
}

// Get sizes the decoded metrics from a count of the encoded metric
// objects. The count stops at the series, whose objects also carry a
// name, and the decode is the same with or without it: a record with
// metrics and series round-trips exactly, and one without metrics
// decodes them as nil.
func TestCacheGetDecodesMetricsExactly(t *testing.T) {
	reg := obs.NewRegistry()
	root := reg.Root()
	root.Scope("a").Counter("events").Add(3)
	root.Scope("b").Histogram("lat").Observe(100)
	root.Scope("p").ProbeGauge("lvl", func() int64 { return 7 })
	smp := obs.NewSampler(reg, 10, 0)
	smp.Tick(10)
	metrics, series := reg.Snapshot(), smp.Export("")

	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		metrics obs.Snapshot
		series  []obs.SeriesData
	}{{metrics, series}, {nil, series}, {metrics, nil}} {
		c := fastCell(int64(i + 1))
		e := &Entry{Record: NewRecord(c, runCell(t, c), tc.metrics, tc.series)}
		if err := cache.Put(e); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(cache.path(c.Key()))
		if err != nil {
			t.Fatal(err)
		}
		if n := metricsHint(blob); n != len(tc.metrics) {
			t.Errorf("case %d: hint %d, want %d metrics", i, n, len(tc.metrics))
		}
		got, ok := cache.Get(c.Key())
		if !ok {
			t.Fatalf("case %d: stored entry missed", i)
		}
		if !reflect.DeepEqual(got.Metrics, tc.metrics) || !reflect.DeepEqual(got.Series, tc.series) {
			t.Errorf("case %d: decoded metrics %+v series %+v, want %+v and %+v",
				i, got.Metrics, got.Series, tc.metrics, tc.series)
		}
	}
}

// One Get of a 116-metric cell record decodes into a metrics array
// sized once. Measured about 29.5 KB per Get; a metrics slice grown by
// doubling instead reads about 47.8 KB.
func TestCacheGetAllocBudget(t *testing.T) {
	_, dir, key := benchShard(t)
	cache, err := OpenCache(dir + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	e, ok := cache.Get(key)
	if !ok || len(e.Metrics) != 116 {
		t.Fatalf("cell record: hit %v, %d metrics, want 116", ok, len(e.Metrics))
	}
	const calls, budget = 20, 35 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, ok := cache.Get(key); !ok {
			t.Fatal("cache miss")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > budget {
		t.Fatalf("Get allocates %d bytes per call, budget %d", per, budget)
	}
}

func TestCacheCorruptEntryIsAMiss(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := fastCell(1)
	res := runCell(t, c)
	if err := cache.Put(&Entry{Record: NewRecord(c, res, nil, nil)}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the stored result without updating the digest: the entry
	// must be rejected (re-run), never served.
	path := cache.path(c.Key())
	blob, _ := os.ReadFile(path)
	var e Entry
	if err := json.Unmarshal(blob, &e); err != nil {
		t.Fatal(err)
	}
	e.Result.ExecTime += 1000
	blob, _ = json.Marshal(&e)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(c.Key()); ok {
		t.Fatal("digest-mismatched entry was served")
	}
	if _, _, bad, _ := cache.Stats(); bad != 1 {
		t.Fatalf("bad = %d, want 1", bad)
	}
	// Truncated JSON is equally a miss.
	os.WriteFile(path, blob[:len(blob)/2], 0o644)
	if _, ok := cache.Get(c.Key()); ok {
		t.Fatal("truncated entry was served")
	}
}

// silentTearFS is the real filesystem, except that the first tears
// writes to a temp file land only half their bytes while reporting
// success: a torn write no error reveals.
type silentTearFS struct {
	guard.FS
	tears int
}

type silentTearFile struct {
	guard.File
	fs *silentTearFS
}

func (f *silentTearFS) CreateTemp(dir, pattern string) (guard.File, error) {
	tf, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &silentTearFile{File: tf, fs: f}, nil
}

func (f *silentTearFile) Write(p []byte) (int, error) {
	if f.fs.tears > 0 {
		f.fs.tears--
		if _, err := f.File.Write(p[:len(p)/2]); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	return f.File.Write(p)
}

// The read-back check catches a torn write that reported success: Put
// retries it into a clean entry, and fails once the retry budget is
// spent on tears, leaving neither a torn entry under the final name nor
// a temp file.
func TestCachePutCatchesSilentTear(t *testing.T) {
	c := fastCell(1)
	res := &core.Result{ExecTime: 12345}
	dir := t.TempDir()
	fsys := &silentTearFS{FS: guard.OS, tears: 2}
	cache, err := OpenCacheOn(fsys, chaosRetrier(3), dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Put(&Entry{Record: NewRecord(c, res, nil, nil)}); err != nil {
		t.Fatalf("put after two silent tears: %v", err)
	}
	if fsys.tears != 0 {
		t.Fatalf("%d tears left unused", fsys.tears)
	}
	if _, ok := cache.Get(c.Key()); !ok {
		t.Fatal("repaired entry missing or corrupt")
	}

	fsys.tears = 1 << 20
	torn := fastCell(2).Key()
	if err := cache.Put(&Entry{Record: NewRecord(fastCell(2), res, nil, nil)}); err == nil {
		t.Fatal("put succeeded although every write tore")
	}
	if _, err := os.Stat(cache.path(torn)); !os.IsNotExist(err) {
		t.Fatalf("a failed put left an entry under the final name: %v", err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(filepath.Dir(cache.path(torn)), ".tmp-*")); len(tmps) > 0 {
		t.Fatalf("a failed put left temp files: %v", tmps)
	}
}

// An entry whose digest does not match its result is refused before
// anything is written.
func TestCachePutRefusesWrongDigest(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := fastCell(1)
	e := &Entry{Record: NewRecord(c, &core.Result{ExecTime: 1}, nil, nil)}
	e.Result = &core.Result{ExecTime: 2}
	if err := cache.Put(e); err == nil {
		t.Fatal("put stored an entry with a wrong digest")
	}
	if _, err := os.Stat(cache.path(c.Key())); !os.IsNotExist(err) {
		t.Fatalf("entry file exists after a refused put: %v", err)
	}
}
