package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nwcache/internal/core"
	"nwcache/internal/machine"
	"nwcache/internal/obs"
)

// small is a memory-pressured test-scale run, so the trace and the
// series carry paging activity.
var small = []string{"-app", "mg", "-scale", "0.1", "-mem", "81920"}

func runT(t *testing.T, args ...string) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("nwsim %v: %v", args, err)
	}
	return out.Bytes()
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// smallCell is the cell nwsim runs for the small arguments.
func smallCell() core.Cell {
	cfg := core.DefaultConfig()
	cfg.Scale = 0.1
	cfg.MemPerNode = 81920
	return core.Cell{App: "mg", Kind: core.NWCache, Mode: core.Optimal,
		Cfg: core.ApplyPaperMinFree(cfg, core.NWCache, core.Optimal)}
}

func TestManifestPinsStdoutAndMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	stdout := runT(t, append(small, "-manifest-out", path)...)
	man, err := obs.ReadManifest(bytes.NewReader(readFile(t, path)))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(stdout)
	if want := "sha256:" + hex.EncodeToString(sum[:]); man.Digest != want {
		t.Fatalf("digest %s, want %s of the captured stdout", man.Digest, want)
	}

	reg := obs.NewRegistry()
	c := smallCell()
	c.Obs = func(_ core.Cell, m *machine.Machine) { m.Observe(reg, nil) }
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if man.Tool != "nwsim" || man.App != "mg" || man.Runs != 1 || man.SimPcycles != res.ExecTime {
		t.Fatalf("manifest tool %q app %q runs %d sim %d; want nwsim mg 1 %d",
			man.Tool, man.App, man.Runs, man.SimPcycles, res.ExecTime)
	}
	got, _ := json.Marshal(man.Metrics)
	want, _ := json.Marshal(reg.Snapshot())
	if !bytes.Equal(got, want) {
		t.Fatal("manifest metrics differ from a directly observed run of the same cell")
	}
}

func TestTraceOutIsOneProcess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	runT(t, append(small, "-trace-out", path)...)
	traces, err := obs.ReadChrome(bytes.NewReader(readFile(t, path)))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || traces[0].Name != smallCell().Label() {
		t.Fatalf("trace processes %v, want one named %q", traces, smallCell().Label())
	}
	if traces[0].Trace.Len() == 0 {
		t.Fatal("trace has no events")
	}
}

// -series-out writes NDJSON. A .csv path is refused at flag parse, before
// any run, by a message that names the one series format.
func TestSeriesOutBySuffix(t *testing.T) {
	dir := t.TempDir()
	nd, csv := filepath.Join(dir, "s.ndjson"), filepath.Join(dir, "s.csv")
	runT(t, append(small, "-series-out", nd, "-series-interval", "200000")...)
	series, err := obs.ReadSeriesNDJSON(bytes.NewReader(readFile(t, nd)))
	if err != nil {
		t.Fatal(err)
	}
	if len(series) == 0 || series[0].Run != smallCell().Label() || len(series[0].Points) < 2 {
		t.Fatalf("NDJSON series: %d columns, first %+v", len(series), series[0])
	}

	var out bytes.Buffer
	err = run(append(small, "-series-out", csv, "-series-interval", "200000"), &out)
	if err == nil || !strings.Contains(err.Error(), "NDJSON") {
		t.Fatalf("-series-out %s: err %v, want a refusal naming NDJSON", csv, err)
	}
	if out.Len() != 0 {
		t.Fatalf("the refused invocation ran and printed %q", out.String())
	}
	if _, err := os.Stat(csv); err == nil {
		t.Fatal("the refused invocation wrote the .csv file")
	}
}

func TestSeedsRejectSingleRunArtifacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := run([]string{"-seeds", "2", "-trace-out", path}, &bytes.Buffer{}); err == nil {
		t.Fatal("-seeds 2 -trace-out accepted")
	}
	if _, err := os.Stat(path); err == nil {
		t.Fatal("rejected run still wrote the trace")
	}
}

// A -config file sets the starting point; flags given on the command
// line, and only those, override it.
func TestConfigFileUnderExplicitFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, []byte(`{"Seed": 7, "MemPerNode": 65536}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var cfg core.Config
	if err := json.Unmarshal(runT(t, "-config", path, "-seed", "3", "-dump-config"), &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 3 || cfg.MemPerNode != 65536 {
		t.Fatalf("seed %d mem %d, want the flag's seed 3 and the file's mem 65536", cfg.Seed, cfg.MemPerNode)
	}
}

// An empty -fault-plan file still runs under an injector and reports it.
func TestEmptyFaultPlanAttachesInjector(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if out := runT(t, append(small, "-fault-plan", path)...); !bytes.Contains(out, []byte("faults (policy=aggressive")) {
		t.Fatalf("no fault account in output:\n%s", out)
	}
}
