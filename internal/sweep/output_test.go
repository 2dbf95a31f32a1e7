package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"nwcache/internal/core"
	"nwcache/internal/obs"
)

// Cache traffic is a deterministic work count: a cold run reads each
// cell's entry once (a miss) and stores it once, and a warm run into a
// fresh directory over the same cache reads each entry once (a hit).
// Writing the shard output must not read the cache again.
func TestRunReadsEachCellOnce(t *testing.T) {
	s := runnerSpec(t)
	n := s.NumCells()
	cold := &Runner{Spec: s, Shard: 0, Shards: 1, Dir: t.TempDir()}
	if _, err := cold.Run(); err != nil {
		t.Fatal(err)
	}
	if hits, misses, bad, stores := cold.cache.Stats(); hits != 0 || misses != n || bad != 0 || stores != n {
		t.Fatalf("cold run cache traffic: hits=%d misses=%d bad=%d stores=%d, want 0/%d/0/%d",
			hits, misses, bad, stores, n, n)
	}
	warm := &Runner{Spec: s, Shard: 0, Shards: 1, Dir: t.TempDir(), CacheDir: cold.cache.Dir()}
	sum, err := warm.Run()
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, bad, stores := warm.cache.Stats(); hits != n || misses != 0 || bad != 0 || stores != 0 {
		t.Fatalf("warm run cache traffic: hits=%d misses=%d bad=%d stores=%d, want %d/0/0/0",
			hits, misses, bad, stores, n)
	}
	if sum.FromCache != n {
		t.Fatalf("warm run summary %+v, want every cell from the cache", sum)
	}
}

// assertNoShardOutput fails if dir holds a shard NDJSON, a shard
// manifest, or a leftover temp file.
func assertNoShardOutput(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".ndjson") || strings.HasSuffix(name, ".manifest.json") || strings.HasPrefix(name, ".tmp-") {
			t.Errorf("a shard that did not complete left %s", name)
		}
	}
}

// A shard that stops early (the MaxFresh cap, a drain) or holds a
// quarantined cell leaves no shard output and no temp file, on the
// first run and on a resume that also stops early.
func TestIncompleteShardLeavesNoOutput(t *testing.T) {
	s := runnerSpec(t)
	for _, tc := range []struct {
		name string
		set  func(r *Runner)
		want error
	}{
		{"max-fresh", func(r *Runner) { r.MaxFresh = 1 }, ErrIncomplete},
		{"draining", func(r *Runner) {
			admitted := 0
			r.OnEvent = func(ev obs.Event) {
				if ev.Type == obs.EventCellStart {
					admitted++
				}
			}
			r.Draining = func() bool { return admitted >= 1 }
		}, ErrIncomplete},
		{"poisoned", func(r *Runner) {
			r.Sabotage = func(c core.Cell) bool { return c.Cfg.Seed == 2 }
		}, ErrPoisoned},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for leg := 0; leg < 2; leg++ {
				r := &Runner{Spec: s, Shard: 0, Shards: 1, Dir: dir}
				tc.set(r)
				sum, err := r.Run()
				if !errors.Is(err, tc.want) {
					t.Fatalf("leg %d: err=%v sum=%+v, want %v", leg, err, sum, tc.want)
				}
				assertNoShardOutput(t, dir)
			}
		})
	}
}

// A shard resumed across interrupts writes the same NDJSON bytes as an
// uninterrupted one: a line written from a decoded cache entry equals
// the line of the freshly built record.
func TestResumedShardNDJSONIsByteIdentical(t *testing.T) {
	s := runnerSpec(t)
	ref, resumed := t.TempDir(), t.TempDir()
	runSweep(t, s, ref, 1, 0)
	runSweep(t, s, resumed, 1, 1)
	r := &Runner{Spec: s, Shard: 0, Shards: 1}
	name := filepath.Base(r.ndjsonPath())
	want := readFileT(t, filepath.Join(ref, name))
	if got := readFileT(t, filepath.Join(resumed, name)); !bytes.Equal(got, want) {
		t.Fatalf("resumed shard NDJSON differs from the uninterrupted one:\n%s\nvs\n%s", got, want)
	}
	if lines := bytes.Count(want, []byte("\n")); lines != s.NumCells() {
		t.Fatalf("shard NDJSON has %d lines, want %d", lines, s.NumCells())
	}
}

// Merge copies a verified series-free shard line byte for byte; that is
// only sound while every line this package writes is the canonical
// encoding of its decoded form.
func TestShardLineIsCanonical(t *testing.T) {
	s := runnerSpec(t)
	dir := t.TempDir()
	runSweep(t, s, dir, 1, 0)
	data := bytes.TrimSpace(readFileT(t, filepath.Join(dir, "shard-0of1.ndjson")))
	for _, b := range bytes.Split(data, []byte("\n")) {
		var line Line
		if err := json.Unmarshal(b, &line); err != nil {
			t.Fatal(err)
		}
		again, err := json.Marshal(&line)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, b) {
			t.Errorf("shard line %d does not re-encode to its own bytes:\n%s\nvs\n%s", line.Idx, again, b)
		}
	}
}

// ReadLines lets its scanner buffer grow from nothing and decodes each
// line in place: reading a small file allocates a small amount, not a
// preallocated maximum-line buffer.
func TestReadLinesAllocatesLittle(t *testing.T) {
	var file []byte
	for i := 0; i < 4; i++ {
		line, err := json.Marshal(Line{Idx: i, Record: Record{Key: "k", Label: "gauss / standard / naive", Digest: "d"}})
		if err != nil {
			t.Fatal(err)
		}
		file = append(append(file, line...), '\n')
	}
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		n := 0
		if err := ReadLines(bytes.NewReader(file), func(Line) error { n++; return nil }); err != nil || n != 4 {
			t.Fatalf("ReadLines: %d lines, err %v", n, err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 64<<10 {
		t.Fatalf("ReadLines allocates %d bytes per call on a %d-byte file, want under 64 KiB", per, len(file))
	}
}

// Merge verifies every shard line before copying it: a missing line, an
// extra line, lines out of grid order and a tampered result each fail
// the merge.
func TestMergeRefusesDamagedShardOutput(t *testing.T) {
	s := runnerSpec(t)
	dir := t.TempDir()
	runSweep(t, s, dir, 1, 0)
	path := filepath.Join(dir, "shard-0of1.ndjson")
	good := readFileT(t, path)
	lines := bytes.SplitAfter(good, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty tail after the last newline
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"missing", bytes.Join(lines[:len(lines)-1], nil), "ended early"},
		{"extra", bytes.Join(append(lines[:len(lines):len(lines)], lines[0]), nil), "extra cells"},
		{"swapped", bytes.Join(append([][]byte{lines[1], lines[0]}, lines[2:]...), nil), "out of order"},
		{"tampered", bytes.Replace(good, []byte(`"ExecTime":`), []byte(`"ExecTime":1`), 1), "digest"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Merge(s, dir, 1, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("merge of a %s shard output: err=%v, want one naming %q", tc.name, err, tc.want)
			}
		})
	}
}
