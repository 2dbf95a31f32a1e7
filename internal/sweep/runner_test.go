package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nwcache/internal/core"
	"nwcache/internal/stats"
)

const runnerSpecText = `
name runner-test
apps gauss
kinds standard,nwcache
modes naive
seeds 1..2
scale 0.05
`

func runnerSpec(t *testing.T) *Spec {
	t.Helper()
	s, err := ParseSpec(runnerSpecText)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runSweep runs every shard of the spec to completion in dir and merges,
// returning the merge summary bytes.
func runSweep(t *testing.T, s *Spec, dir string, shards, maxFresh int) []byte {
	t.Helper()
	for i := 0; i < shards; i++ {
		r := &Runner{Spec: s, Shard: i, Shards: shards, Dir: dir, MaxFresh: maxFresh}
		for {
			sum, err := r.Run()
			if errors.Is(err, ErrIncomplete) {
				if sum.Done {
					t.Fatal("ErrIncomplete with Done summary")
				}
				continue // resume: the STATE file carries the progress
			}
			if err != nil {
				t.Fatal(err)
			}
			if !sum.Done {
				t.Fatalf("nil error but summary not done: %+v", sum)
			}
			break
		}
	}
	var out bytes.Buffer
	cells, err := Merge(s, dir, shards, &out)
	if err != nil {
		t.Fatal(err)
	}
	if cells != s.NumCells() {
		t.Fatalf("merged %d cells, want %d", cells, s.NumCells())
	}
	return out.Bytes()
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestInterruptedResumeIsByteIdentical(t *testing.T) {
	s := runnerSpec(t)
	ref, interrupted := t.TempDir(), t.TempDir()

	// Reference: one uninterrupted run, single shard.
	refOut := runSweep(t, s, ref, 1, 0)
	// Interrupted: two shards, each killed after every fresh cell (the
	// MaxFresh cap models a mid-sweep kill at a record boundary), resumed
	// until done.
	intOut := runSweep(t, s, interrupted, 2, 1)

	refND, refMan, _ := MergedPaths(ref)
	intND, intMan, _ := MergedPaths(interrupted)
	if !bytes.Equal(readFileT(t, refND), readFileT(t, intND)) {
		t.Fatal("merged NDJSON differs between uninterrupted and interrupted-resumed sweeps")
	}
	if !bytes.Equal(readFileT(t, refMan), readFileT(t, intMan)) {
		t.Fatalf("merged manifest differs:\n%s\nvs\n%s", readFileT(t, refMan), readFileT(t, intMan))
	}
	if !bytes.Equal(refOut, intOut) {
		t.Fatalf("merge summaries differ:\n%s\nvs\n%s", refOut, intOut)
	}
}

func TestResumeAndWarmCacheRunZeroFreshCells(t *testing.T) {
	s := runnerSpec(t)
	dir := t.TempDir()
	runSweep(t, s, dir, 1, 0)

	// Leg 1: STATE intact — everything satisfied from the STATE file.
	r := &Runner{Spec: s, Shard: 0, Shards: 1, Dir: dir}
	sum, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Fresh != 0 || sum.FromState != s.NumCells() {
		t.Fatalf("warm STATE re-run: %+v, want all fromState", sum)
	}

	// Leg 2: STATE deleted, cache kept — everything adopted from the
	// content-addressed cache, still zero fresh simulations.
	if err := os.Remove(filepath.Join(dir, "shard-0of1.state")); err != nil {
		t.Fatal(err)
	}
	r = &Runner{Spec: s, Shard: 0, Shards: 1, Dir: dir}
	if sum, err = r.Run(); err != nil {
		t.Fatal(err)
	}
	if sum.Fresh != 0 || sum.FromCache != s.NumCells() {
		t.Fatalf("warm cache re-run: %+v, want all fromCache", sum)
	}
}

// firstCellKey returns the key of cell 0 of the grid.
func firstCellKey(t *testing.T, s *Spec) string {
	t.Helper()
	var key string
	if err := s.EachCell(func(idx int, c core.Cell) error {
		if idx == 0 {
			key = c.Key()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return key
}

func TestDigestMismatchedCacheEntryReRuns(t *testing.T) {
	s := runnerSpec(t)
	dir := t.TempDir()
	runSweep(t, s, dir, 1, 0)

	// Tamper with one cache entry but keep it internally consistent
	// (result mutated, digest re-signed): it still passes the cache's own
	// verification, but no longer matches the STATE record's digest, so
	// the cell must re-run rather than serve the tampered result.
	cacheDir := filepath.Join(dir, "cache")
	cache, err := OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	victim := firstCellKey(t, s)
	blob := readFileT(t, cache.path(victim))
	var e Entry
	if err := json.Unmarshal(blob, &e); err != nil {
		t.Fatal(err)
	}
	e.Result.ExecTime += 12345
	e.Digest = ResultDigest(e.Result)
	if err := cache.Put(&e); err != nil {
		t.Fatal(err)
	}

	r := &Runner{Spec: s, Shard: 0, Shards: 1, Dir: dir}
	sum, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Fresh != 1 || sum.FromState != s.NumCells()-1 {
		t.Fatalf("after tampering: %+v, want exactly one fresh re-run", sum)
	}

	// The re-run repaired both the cache entry and the STATE record: the
	// next pass is all fromState again, and the merged artifacts match a
	// clean sweep's.
	r = &Runner{Spec: s, Shard: 0, Shards: 1, Dir: dir}
	if sum, err = r.Run(); err != nil {
		t.Fatal(err)
	}
	if sum.Fresh != 0 || sum.FromState != s.NumCells() {
		t.Fatalf("after repair: %+v, want all fromState", sum)
	}
	var out bytes.Buffer
	if _, err := Merge(s, dir, 1, &out); err != nil {
		t.Fatal(err)
	}
	clean := t.TempDir()
	runSweep(t, s, clean, 1, 0)
	dirtyND, _, _ := MergedPaths(dir)
	cleanND, _, _ := MergedPaths(clean)
	if !bytes.Equal(readFileT(t, dirtyND), readFileT(t, cleanND)) {
		t.Fatal("repaired sweep's merged NDJSON differs from a clean sweep")
	}
}

// TestMergePrintsPivot runs a 2-app x 2-value grid and checks the merge
// summary: an exec table and a swap-out table, one row per app, one
// column per MemPerNode value, each number the merged cell's own. The
// smaller memory swaps, so every number in a row differs.
func TestMergePrintsPivot(t *testing.T) {
	s, err := ParseSpec("name pivot\napps em3d,gauss\nkinds standard\nmodes naive\nscale 0.05\nparam MemPerNode 32768,262144\n")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	out := string(runSweep(t, s, dir, 1, 0))

	ndjson, _, _ := MergedPaths(dir)
	want := [2][2][2]string{} // table, row, column
	err = ReadLines(bytes.NewReader(readFileT(t, ndjson)), func(l Line) error {
		want[0][l.Idx/2][l.Idx%2] = stats.FmtF(float64(l.Result.ExecTime)/1e6, 1)
		want[1][l.Idx/2][l.Idx%2] = stats.FmtF(l.Result.AvgSwapTime/1e3, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	tables := strings.Split(strings.TrimSpace(out), "\n\n")
	if len(tables) != 2 {
		t.Fatalf("want 2 tables, got %d:\n%s", len(tables), out)
	}
	for ti, metric := range []string{"exec Mpcycles", "average swap-out Kpcycles"} {
		lines := strings.Split(tables[ti], "\n")
		if len(lines) != 5 {
			t.Fatalf("table %d: want title, header, rule and 2 rows:\n%s", ti, tables[ti])
		}
		if !strings.Contains(lines[0], metric+"; columns: MemPerNode") {
			t.Errorf("table %d title = %q", ti, lines[0])
		}
		if got := strings.Fields(lines[1]); strings.Join(got, " ") != "Application 32768 262144" {
			t.Errorf("table %d header = %q", ti, got)
		}
		for r, app := range []string{"em3d", "gauss"} {
			row := strings.Fields(lines[3+r])
			if len(row) != 3 || row[0] != app || row[1] != want[ti][r][0] || row[2] != want[ti][r][1] {
				t.Errorf("table %d row %d = %q, want [%s %s %s]", ti, r, row, app, want[ti][r][0], want[ti][r][1])
			}
		}
	}
}
