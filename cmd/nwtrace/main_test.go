package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nwcache/internal/core"
	"nwcache/internal/obs"
)

// sampleTrace is a small hand-built run: one disk fault, one ring fault
// on a page swapped out over the ring, and a device write that ends past
// the last machine record.
func sampleTrace() *obs.Trace {
	tr := obs.NewTrace(0)
	tr.Span(0, "fault.disk", 0, 100, 10)
	tr.Instant(2, "ring.insert", 200, 20)
	tr.Span(2, "swap.ring", 150, 210, 20)
	tr.Span(0, "fault.ring", 400, 500, 20)
	tr.Instant(0, "ring.victim", 500, 20)
	tr.Instant(2, "ring.release", 600, 20)
	tr.Span(4, "disk.write", 550, 9000, 20)
	return tr
}

func TestAnalyzeCountsAndLatencies(t *testing.T) {
	s := analyze(sampleTrace())
	if s.counts["fault.disk"] != 1 || s.counts["swap.ring"] != 1 || s.counts["disk.write"] != 1 {
		t.Fatalf("counts %v", s.counts)
	}
	if s.faultDisk.Count() != 1 || s.faultDisk.Mean() != 100 {
		t.Fatalf("disk fault latency count %d mean %f", s.faultDisk.Count(), s.faultDisk.Mean())
	}
	if s.faultRing.Count() != 1 {
		t.Fatal("ring fault latency missing")
	}
	if s.swap.Mean() != 60 {
		t.Fatalf("swap latency %f, want 60", s.swap.Mean())
	}
	// The disk.write span ends at 9000 but does not widen the window.
	if s.window != 600 {
		t.Fatalf("window %d, want 600", s.window)
	}
}

func TestAnalyzeRingOccupancy(t *testing.T) {
	tr := obs.NewTrace(0)
	tr.Instant(0, "ring.insert", 0, 1)
	tr.Instant(0, "ring.insert", 100, 2)
	tr.Instant(0, "ring.release", 200, 1)
	tr.Instant(0, "ring.release", 400, 2)
	s := analyze(tr)
	if s.ringPeak != 2 {
		t.Fatalf("peak %d, want 2", s.ringPeak)
	}
	// Occupancy: 1 for [0,100), 2 for [100,200), 1 for [200,400):
	// mean = (100*1 + 100*2 + 200*1)/400 = 1.25.
	if s.ringAvg != 1.25 {
		t.Fatalf("mean %f, want 1.25", s.ringAvg)
	}
}

func TestAnalyzeHotPages(t *testing.T) {
	tr := obs.NewTrace(0)
	for i := int64(0); i < 5; i++ {
		tr.Span(0, "fault.ring", i*10, i*10+5, 7)
	}
	tr.Span(0, "fault.disk", 100, 110, 9)
	s := analyze(tr)
	if len(s.hotPages) != 2 || s.hotPages[0] != (pageCount{page: 7, count: 5}) {
		t.Fatalf("hot pages %v", s.hotPages)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	s := analyze(obs.NewTrace(0))
	if s.window != 0 || len(s.hotPages) != 0 {
		t.Fatal("empty analysis not empty")
	}
	if !strings.Contains(s.String(), "Record counts") {
		t.Fatal("empty summary should still render")
	}
}

func TestSummaryStringRenders(t *testing.T) {
	out := analyze(sampleTrace()).String()
	for _, want := range []string{"fault.disk", "swap-out", "ring occupancy", "Hottest pages", "0 events dropped"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestRingTimelineTracksOccupancy(t *testing.T) {
	// Occupancy 1 for the first half of the window, 0 for the second
	// half: the timeline's first buckets must be ~1 and the last ~0.
	tr := obs.NewTrace(0)
	tr.Instant(0, "ring.insert", 0, 1)
	tr.Instant(0, "ring.release", 500, 1)
	tr.Span(1, "fault.disk", 900, 1000, 2) // extends the window
	s := analyze(tr)
	if len(s.ringTimeline) != timelineBuckets {
		t.Fatalf("timeline len %d", len(s.ringTimeline))
	}
	if first := s.ringTimeline[0]; first < 0.9 {
		t.Fatalf("first bucket %f, want ~1", first)
	}
	if last := s.ringTimeline[timelineBuckets-1]; last > 0.1 {
		t.Fatalf("last bucket %f, want ~0", last)
	}
	if !strings.Contains(s.String(), "timeline:") {
		t.Fatal("timeline not rendered")
	}
}

// pinnedTrace runs mg at scale 0.1 with 80 KB per node (memory-pressured,
// so every ring path runs) on NWCache with optimal prefetch, seed 1: the
// run nwsim -app mg -scale 0.1 -mem 81920 -trace-out traces.
func pinnedTrace(t *testing.T) *obs.Trace {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Scale = 0.1
	cfg.Seed = 1
	cfg.MemPerNode = 81920
	cfg = core.ApplyPaperMinFree(cfg, core.NWCache, core.Optimal)
	prog, err := core.NewProgram("mg", cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMachine(cfg, core.NWCache, core.Optimal)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace(0)
	m.Observe(nil, tr)
	if _, err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	return tr
}

// The pinned run must keep producing the exact numbers its analysis has
// always produced, both from the in-memory trace and after a Chrome
// write/read round trip. The timeline checksum is the sharpest detector
// of bucket-edge bugs (off-by-one in b0/b1, mis-clamped overlaps).
func TestAnalyzePinnedRun(t *testing.T) {
	tr := pinnedTrace(t)
	var buf bytes.Buffer
	if err := obs.WriteChromeMulti(&buf, []obs.NamedTrace{{Name: "mg", Trace: tr}}); err != nil {
		t.Fatal(err)
	}
	runs, err := obs.ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*obs.Trace{"in-memory": tr, "round-trip": runs[0].Trace} {
		s := analyze(tr)
		if s.window != 32918229 {
			t.Fatalf("%s: window %d, want 32918229", name, s.window)
		}
		if s.ringPeak != 30 || s.ringSamples != 986 {
			t.Fatalf("%s: ring peak/samples %d/%d, want 30/986", name, s.ringPeak, s.ringSamples)
		}
		if math.Abs(s.ringAvg-14.220463) > 1e-6 {
			t.Fatalf("%s: ring mean %.9f, want 14.220463", name, s.ringAvg)
		}
		if len(s.ringTimeline) != 60 {
			t.Fatalf("%s: timeline len %d, want 60", name, len(s.ringTimeline))
		}
		var sum float64
		for _, v := range s.ringTimeline {
			sum += v
		}
		if math.Abs(sum-853.227781) > 1e-5 {
			t.Fatalf("%s: timeline checksum %.9f, want 853.227781", name, sum)
		}
		if d, r, w := s.faultDisk.Count(), s.faultRing.Count(), s.swap.Count(); d != 184 || r != 452 || w != 493 {
			t.Fatalf("%s: latency totals disk/ring/swap = %d/%d/%d, want 184/452/493", name, d, r, w)
		}
		if len(s.hotPages) == 0 || s.hotPages[0] != (pageCount{page: 92, count: 10}) {
			t.Fatalf("%s: hottest page %v, want {92 10}", name, s.hotPages)
		}
		want := map[string]uint64{
			"fault.disk": 184, "fault.ring": 452, "fault.wait": 193,
			"ring.insert": 493, "ring.release": 493, "ring.drain": 41,
			"ring.victim": 452, "clean.evict": 27,
		}
		for rec, n := range want {
			if s.counts[rec] != n {
				t.Fatalf("%s: count[%s] = %d, want %d", name, rec, s.counts[rec], n)
			}
		}
		if swaps := s.counts["swap.ring"] + s.counts["swap.disk"]; swaps != 493 {
			t.Fatalf("%s: swap.* = %d, want 493", name, swaps)
		}
	}
}

// No printed quantile may exceed the printed maximum: the report's
// quantiles are clamped to the observed range, not bucket upper edges.
func TestPrintedQuantilesWithinMax(t *testing.T) {
	out := analyze(pinnedTrace(t)).String()
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "fault (") && !strings.HasPrefix(line, "swap-out") {
			continue
		}
		f := strings.Fields(line)
		f = f[len(f)-5:] // Count Mean p50 p99 Max
		var v [5]int64
		for i, s := range f {
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				t.Fatalf("row %q: %v", line, err)
			}
			v[i] = n
		}
		if v[2] > v[4] || v[3] > v[4] {
			t.Fatalf("quantile above max in %q", line)
		}
		rows++
	}
	if rows != 3 {
		t.Fatalf("found %d latency rows, want 3:\n%s", rows, out)
	}
}

func TestRunSummarizesEachProcess(t *testing.T) {
	var buf bytes.Buffer
	if err := obs.WriteChromeMulti(&buf, []obs.NamedTrace{
		{Name: "run-a", Trace: sampleTrace()},
		{Name: "run-b", Trace: obs.NewTrace(0)},
	}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var fromFile, fromStdin bytes.Buffer
	if err := run([]string{path}, nil, &fromFile); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-"}, bytes.NewReader(buf.Bytes()), &fromStdin); err != nil {
		t.Fatal(err)
	}
	if fromFile.String() != fromStdin.String() {
		t.Fatal("file and stdin reports differ")
	}
	out := fromFile.String()
	if !strings.Contains(out, "== run-a ==") || !strings.Contains(out, "== run-b ==") {
		t.Fatalf("missing a process summary:\n%s", out)
	}
	if err := run(nil, nil, &fromFile); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Fatalf("no argument: err %v, want usage", err)
	}
	if err := run([]string{"-"}, strings.NewReader("not json"), &fromFile); err == nil {
		t.Fatal("garbage accepted")
	}
}

// FuzzAnalyze: whatever ReadChrome accepts, the analysis and its report
// never panic.
func FuzzAnalyze(f *testing.F) {
	var buf bytes.Buffer
	if err := obs.WriteChromeMulti(&buf, []obs.NamedTrace{{Name: "sample", Trace: sampleTrace()}}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"traceEvents":[{"name":"ring.release","ph":"i","pid":0,"args":{"pc":-9223372036854775808}},` +
		`{"name":"ring.insert","ph":"i","pid":0,"args":{"pc":9223372036854775807}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		runs, err := obs.ReadChrome(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, nt := range runs {
			_ = analyze(nt.Trace).String()
		}
	})
}
