package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"nwcache/internal/core"
	"nwcache/internal/obs"
)

// Observe is called from pool workers at once; every run must be
// collected, and the artifacts must come out in one order however the
// calls interleave — by label, then by cell key where labels tie.
func TestObserveConcurrentCalls(t *testing.T) {
	dir := t.TempDir()
	f := Flags{
		TraceOut:       filepath.Join(dir, "trace.json"),
		ManifestOut:    filepath.Join(dir, "manifest.json"),
		SeriesOut:      filepath.Join(dir, "series.ndjson"),
		SeriesInterval: 100_000,
	}
	s, err := f.Start("test", &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cfg := core.DefaultConfig()
	cfg.Scale = 0.05
	var cells []core.Cell
	for _, app := range []string{"sor", "fft", "radix", "em3d"} {
		for _, kind := range []core.Kind{core.Standard, core.NWCache} {
			cells = append(cells, core.Cell{App: app, Kind: kind, Mode: core.Naive, Cfg: cfg, Obs: s.Observe})
		}
	}
	// Two cells whose labels tie: only the key tells them apart.
	tie := cells[0]
	tie.Cfg.MemPerNode /= 2
	cells = append(cells, tie)

	var wg sync.WaitGroup
	for _, c := range cells {
		wg.Add(1)
		go func(c core.Cell) {
			defer wg.Done()
			if _, err := c.Run(); err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait()
	if err := s.Finish(cfg, obs.Manifest{}); err != nil {
		t.Fatal(err)
	}

	runs := s.sortedRuns()
	if len(runs) != len(cells) {
		t.Fatalf("collected %d runs, want %d", len(runs), len(cells))
	}
	for i := 1; i < len(runs); i++ {
		a, b := runs[i-1], runs[i]
		if a.label > b.label || (a.label == b.label && a.key >= b.key) {
			t.Fatalf("runs out of order at %d: %q/%s then %q/%s", i, a.label, a.key, b.label, b.key)
		}
	}

	raw, err := os.ReadFile(f.TraceOut)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := obs.ReadChrome(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for i, tr := range traces {
		names = append(names, tr.Name)
		want = append(want, runs[i].label)
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("trace processes %v, want %v", names, want)
	}
	raw, err = os.ReadFile(f.ManifestOut)
	if err != nil {
		t.Fatal(err)
	}
	man, err := obs.ReadManifest(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if man.Tool != "test" || man.Runs != len(cells) || man.TraceSpans == 0 {
		t.Fatalf("manifest tool %q runs %d spans %d", man.Tool, man.Runs, man.TraceSpans)
	}
	raw, err = os.ReadFile(f.SeriesOut)
	if err != nil {
		t.Fatal(err)
	}
	series, err := obs.ReadSeriesNDJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if series[0].Run != runs[0].label || series[len(series)-1].Run != runs[len(runs)-1].label {
		t.Fatalf("series runs %q..%q, want %q..%q", series[0].Run, series[len(series)-1].Run,
			runs[0].label, runs[len(runs)-1].label)
	}
}

// With nothing to observe, the hook leaves the machine alone.
func TestObserveIdleWithoutConsumers(t *testing.T) {
	s, err := Flags{}.Start("test", &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cfg := core.DefaultConfig()
	cfg.Scale = 0.05
	c := core.Cell{App: "sor", Kind: core.NWCache, Mode: core.Naive, Cfg: cfg, Obs: s.Observe}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if n := len(s.sortedRuns()); n != 0 {
		t.Fatalf("idle session collected %d runs", n)
	}
}

func TestStartRejectsNonPositiveInterval(t *testing.T) {
	if _, err := (Flags{SeriesOut: "x.ndjson"}).Start("test", &bytes.Buffer{}); err == nil {
		t.Fatal("-series-interval 0 accepted with -series-out")
	}
}

// Each artifact is written on its own: when one cannot be written, the
// others still are, and Finish reports the one that failed. The two runs
// differ in length, so their series do not align.
func TestFinishWritesEveryWritableArtifact(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Scale = 0.05
	for _, broken := range []string{"series", "trace", "manifest", ""} {
		name := "unwritable " + broken
		if broken == "" {
			name = "all writable"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			paths := map[string]string{
				"series":   filepath.Join(dir, "series.ndjson"),
				"trace":    filepath.Join(dir, "trace.json"),
				"manifest": filepath.Join(dir, "manifest.json"),
			}
			if broken != "" {
				paths[broken] = filepath.Join(dir, "missing", broken)
			}
			f := Flags{
				SeriesOut:      paths["series"],
				TraceOut:       paths["trace"],
				ManifestOut:    paths["manifest"],
				SeriesInterval: 100_000,
			}
			s, err := f.Start("test", &bytes.Buffer{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var ends []int64
			for _, app := range []string{"sor", "fft"} {
				c := core.Cell{App: app, Kind: core.NWCache, Mode: core.Naive, Cfg: cfg, Obs: s.Observe}
				res, err := c.Run()
				if err != nil {
					t.Fatal(err)
				}
				ends = append(ends, res.ExecTime)
			}
			if ends[0] == ends[1] {
				t.Fatalf("both runs end at %d: the series align", ends[0])
			}
			err = s.Finish(cfg, obs.Manifest{})
			if broken == "" && err != nil {
				t.Fatal(err)
			}
			if broken != "" && (err == nil || !strings.Contains(err.Error(), paths[broken])) {
				t.Fatalf("Finish error %v, want one naming %s", err, paths[broken])
			}
			for name, path := range paths {
				if name == broken {
					continue
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%s not written: %v", name, err)
				}
				var n int
				switch name {
				case "series":
					series, err := obs.ReadSeriesNDJSON(bytes.NewReader(raw))
					if err != nil {
						t.Fatal(err)
					}
					n = len(series)
				case "trace":
					traces, err := obs.ReadChrome(bytes.NewReader(raw))
					if err != nil {
						t.Fatal(err)
					}
					n = len(traces)
				case "manifest":
					man, err := obs.ReadManifest(bytes.NewReader(raw))
					if err != nil {
						t.Fatal(err)
					}
					n = man.Runs
				}
				if n < 2 {
					t.Fatalf("%s holds %d entries, want both runs", name, n)
				}
			}
		})
	}
}
