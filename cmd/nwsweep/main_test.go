package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"nwcache/internal/core"
	"nwcache/internal/sweep"
)

// TestMain doubles the test binary as the nwsweep CLI: when re-exec'd
// with NWSWEEP_MAIN=1 it runs main() directly, so the exit-code tests
// below exercise the real flag parsing, signal wiring, and os.Exit
// paths without a separate `go build`.
func TestMain(m *testing.M) {
	if os.Getenv("NWSWEEP_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI re-execs the test binary as nwsweep and returns its exit code
// and combined output.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "NWSWEEP_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("exec: %v\n%s", err, out)
		}
		return ee.ExitCode(), string(out)
	}
	return 0, string(out)
}

// writeSpec drops a grid spec file in a temp dir and returns its path
// plus a fresh sweep output dir.
func writeSpec(t *testing.T, seeds string) (specPath, dir string) {
	t.Helper()
	root := t.TempDir()
	specPath = filepath.Join(root, "spec.txt")
	spec := "name cli-test\napps gauss\nkinds standard\nmodes naive\nseeds " + seeds + "\nscale 0.05\n"
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	dir = filepath.Join(root, "out")
	return specPath, dir
}

func TestGridExitComplete(t *testing.T) {
	spec, dir := writeSpec(t, "1..1")
	code, out := runCLI(t, "-grid", spec, "-dir", dir, "-q")
	if code != exitOK {
		t.Fatalf("exit = %d, want %d\n%s", code, exitOK, out)
	}
	code, out = runCLI(t, "-grid", spec, "-dir", dir, "-merge", "-shards", "1", "-q")
	if code != exitOK {
		t.Fatalf("merge exit = %d, want %d\n%s", code, exitOK, out)
	}
	if _, err := os.Stat(filepath.Join(dir, "merged.ndjson")); err != nil {
		t.Fatalf("merged output missing: %v", err)
	}
}

func TestGridExitHardError(t *testing.T) {
	spec, dir := writeSpec(t, "1..1")
	// Missing -grid or -dir, nonexistent spec, and a malformed shard
	// (trailing input included) must all take the hard-error path.
	for _, args := range [][]string{
		{"-dir", dir},
		{"-grid", spec},
		{"-grid", filepath.Join(dir, "nope.txt"), "-dir", dir},
		{"-grid", spec, "-dir", dir, "-shard", "5/2"},
		{"-grid", spec, "-dir", dir, "-shard", "0/2abc"},
		{"-grid", spec, "-dir", dir, "-shard", "0/2/3"},
		{"-grid", spec, "-dir", dir, "-shard", "0/"},
		{"-grid", spec, "-dir", dir, "-shard", "0"},
	} {
		code, out := runCLI(t, args...)
		if code != exitHard {
			t.Fatalf("%v: exit = %d, want %d\n%s", args, code, exitHard, out)
		}
	}
}

func TestGridExitIncompleteThenResume(t *testing.T) {
	spec, dir := writeSpec(t, "1..2")
	code, out := runCLI(t, "-grid", spec, "-dir", dir, "-max-cells", "1", "-q")
	if code != exitIncomplete {
		t.Fatalf("capped exit = %d, want %d\n%s", code, exitIncomplete, out)
	}
	code, out = runCLI(t, "-grid", spec, "-dir", dir, "-q")
	if code != exitOK {
		t.Fatalf("resume exit = %d, want %d\n%s", code, exitOK, out)
	}
}

func TestGridExitPoisonedThenRetry(t *testing.T) {
	spec, dir := writeSpec(t, "1..2")
	code, out := runCLI(t, "-grid", spec, "-dir", dir, "-chaos-panic", "seed=2", "-q")
	if code != exitPoisoned {
		t.Fatalf("sabotaged exit = %d, want %d\n%s", code, exitPoisoned, out)
	}
	if !strings.Contains(out, "poisoned") {
		t.Fatalf("missing poison diagnostic:\n%s", out)
	}
	// Without -retry-poison the quarantine holds.
	code, out = runCLI(t, "-grid", spec, "-dir", dir, "-q")
	if code != exitPoisoned {
		t.Fatalf("quarantined exit = %d, want %d\n%s", code, exitPoisoned, out)
	}
	// Retrying without the sabotage hook heals the shard.
	code, out = runCLI(t, "-grid", spec, "-dir", dir, "-retry-poison", "-q")
	if code != exitOK {
		t.Fatalf("retry exit = %d, want %d\n%s", code, exitOK, out)
	}
}

func TestGridChaosFSRunsClean(t *testing.T) {
	spec, dir := writeSpec(t, "1..2")
	plan := filepath.Join(filepath.Dir(spec), "chaos.txt")
	planText := "sync fail nth=2\nwrite short rate=0.2\nread eintr rate=0.1\n"
	if err := os.WriteFile(plan, []byte(planText), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := runCLI(t, "-grid", spec, "-dir", dir,
		"-chaos-fs", plan, "-chaos-seed", "7", "-q")
	if code != exitOK {
		t.Fatalf("chaos exit = %d, want %d\n%s", code, exitOK, out)
	}
	if !strings.Contains(out, "nwsweep: chaos:") {
		t.Fatalf("missing chaos stats line:\n%s", out)
	}
}

// TestCheckedInSweepSpecs walks the paper's sweeps under sweeps/: each
// spec parses, enumerates its pinned number of cells, and never runs one
// cell twice under two coordinates.
func TestCheckedInSweepSpecs(t *testing.T) {
	want := map[string]int{
		"armsched":  56, // 7 apps x 2 kinds x 2 modes x 2 policies
		"baseline":  28,
		"channels":  28,
		"diskcache": 70,
		"drain":     14,
		"minfree":   70,
		"nodes":     56,
		"prefetch":  42,
		"ring":      35,
		"swapdepth": 56,
		"wbuf":      56,
	}
	paths, err := filepath.Glob("../../sweeps/*.txt")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(want) {
		t.Fatalf("found %d specs, want %d: %v", len(paths), len(want), paths)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".txt")
		spec, err := sweep.ParseSpecFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if spec.Name != name {
			t.Errorf("%s: spec name %q", name, spec.Name)
		}
		if got := spec.NumCells(); got != want[name] {
			t.Errorf("%s: NumCells = %d, want %d", name, got, want[name])
		}
		seen := make(map[string]int)
		if err := spec.EachCell(func(idx int, c core.Cell) error {
			if prev, ok := seen[c.Key()]; ok {
				t.Errorf("%s: cells %d and %d share key %.12s", name, prev, idx, c.Key())
			}
			seen[c.Key()] = idx
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
