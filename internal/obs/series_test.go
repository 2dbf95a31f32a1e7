package obs

import (
	"bytes"
	"fmt"
	"testing"
)

// sampleReg builds a registry with one metric of each sampled kind and
// returns the handles for driving them.
func sampleReg() (*Registry, *Counter, *Gauge, *Histogram) {
	reg := NewRegistry()
	root := reg.Root()
	c := root.Scope("a").Counter("events")
	g := root.Scope("a").Gauge("level")
	h := root.Scope("b").Histogram("lat")
	return reg, c, g, h
}

func TestSamplerRecordsColumns(t *testing.T) {
	reg, c, g, h := sampleReg()
	s := NewSampler(reg, 10, 0)
	for i := int64(1); i <= 3; i++ {
		c.Add(uint64(i))
		g.Set(i * 5)
		h.Observe(i * 100)
		s.Tick(i * 10)
	}
	if s.Len() != 3 {
		t.Fatalf("Len %d, want 3", s.Len())
	}
	series := s.Export("run1")
	// a.events, a.level, b.lat.count, b.lat.p50, b.lat.p99 — sorted.
	wantNames := []string{"a.events", "a.level", "b.lat.count", "b.lat.p50", "b.lat.p99"}
	if len(series) != len(wantNames) {
		t.Fatalf("exported %d series, want %d", len(series), len(wantNames))
	}
	for i, sd := range series {
		if sd.Name != wantNames[i] {
			t.Fatalf("series[%d] = %q, want %q", i, sd.Name, wantNames[i])
		}
		if sd.Run != "run1" {
			t.Fatalf("series run %q", sd.Run)
		}
		if len(sd.Points) != 3 {
			t.Fatalf("%s: %d points, want 3", sd.Name, len(sd.Points))
		}
	}
	ev := series[0] // a.events: cumulative 1, 3, 6
	for i, want := range []float64{1, 3, 6} {
		if ev.Points[i][0] != float64((i+1)*10) || ev.Points[i][1] != want {
			t.Fatalf("a.events points %v", ev.Points)
		}
	}
	lvl := series[1] // a.level: 5, 10, 15
	for i, want := range []float64{5, 10, 15} {
		if lvl.Points[i][1] != want {
			t.Fatalf("a.level points %v", lvl.Points)
		}
	}
	if got := series[2].Points[2][1]; got != 3 {
		t.Fatalf("b.lat.count last = %v, want 3", got)
	}
}

// A repeated or out-of-order tick time is ignored — the final flush
// after Run may land on a boundary the engine already ticked.
func TestSamplerIgnoresNonMonotoneTicks(t *testing.T) {
	reg, c, _, _ := sampleReg()
	s := NewSampler(reg, 10, 0)
	c.Inc()
	s.Tick(10)
	s.Tick(10)
	s.Tick(5)
	if s.Len() != 1 {
		t.Fatalf("Len %d, want 1", s.Len())
	}
}

// When the buffers fill, the sampler compacts pairwise and keeps
// covering the whole run: first and last timestamps survive within one
// stride, and the point count stays bounded by cap.
func TestSamplerCompaction(t *testing.T) {
	reg, c, _, _ := sampleReg()
	s := NewSampler(reg, 1, 8)
	const total = 100
	for i := int64(1); i <= total; i++ {
		c.Inc()
		s.Tick(i)
	}
	if s.Len() > 8 {
		t.Fatalf("Len %d exceeds cap 8", s.Len())
	}
	sd := s.Export("")[0] // a.events
	if len(sd.Points) == 0 {
		t.Fatal("no points after compaction")
	}
	// Whole-run coverage at coarser resolution: with cap 8 and 100 ticks
	// the stride settles at 16, so the first and last surviving points
	// must sit within one stride of the run's ends (a plain ring would
	// have lost the head entirely).
	first, last := sd.Points[0], sd.Points[len(sd.Points)-1]
	if first[0] > 16 {
		t.Fatalf("first timestamp %v — head lost to compaction", first[0])
	}
	if last[0] < total-16 {
		t.Fatalf("last timestamp %v, want within 16 of %d — tail lost", last[0], total)
	}
	// Counter values stay monotone through pairwise averaging.
	for i := 1; i < len(sd.Points); i++ {
		if sd.Points[i][1] < sd.Points[i-1][1] {
			t.Fatalf("counter series not monotone: %v", sd.Points)
		}
		if sd.Points[i][0] <= sd.Points[i-1][0] {
			t.Fatalf("timestamps not increasing: %v", sd.Points)
		}
	}
}

// Two identical runs must produce byte-identical exports (determinism is
// the whole point of sampling on the virtual clock).
func TestSamplerDeterministic(t *testing.T) {
	run := func() []byte {
		reg, c, g, h := sampleReg()
		s := NewSampler(reg, 10, 16)
		for i := int64(1); i <= 200; i++ {
			c.Add(uint64(i % 7))
			g.Set(i % 13)
			h.Observe(i * 3)
			s.Tick(i * 10)
		}
		var buf bytes.Buffer
		if err := WriteSeriesNDJSON(&buf, s.Export("x")); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("identical runs produced different series exports")
	}
}

// A steady-state Tick must not allocate: recording, recording with a
// published view, or live-only; neither must a nil sampler's.
func TestSamplerTickZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	reg, c, g, h := sampleReg()
	now := int64(0)
	published := NewSampler(reg, 1, 64)
	published.Publish("published")
	liveOnly, _ := NewLiveSampler(reg, 1, "live-only")
	for _, tc := range []struct {
		name string
		s    *Sampler
	}{
		{"recording", NewSampler(reg, 1, 64)},
		{"published", published},
		{"live-only", liveOnly},
	} {
		allocs := testing.AllocsPerRun(500, func() {
			now++
			c.Inc()
			g.Set(now)
			h.Observe(now)
			tc.s.Tick(now)
		})
		if allocs != 0 {
			t.Fatalf("%s Tick allocates %.1f/op, want 0", tc.name, allocs)
		}
	}
	var nilS *Sampler
	allocs := testing.AllocsPerRun(100, func() {
		now++
		nilS.Tick(now)
	})
	if allocs != 0 {
		t.Fatalf("nil Tick allocates %.1f/op, want 0", allocs)
	}
}

// A live-only sampler publishes every tick but keeps no per-column
// record buffers, so it records and exports nothing.
func TestLiveSamplerRecordsNothing(t *testing.T) {
	reg, _, g, _ := sampleReg()
	s, view := NewLiveSampler(reg, 10, "run")
	if s.times != nil {
		t.Fatal("live-only sampler has a times buffer")
	}
	for _, c := range s.cols {
		if c.vals != nil {
			t.Fatalf("live-only sampler has a record buffer for %s", c.name)
		}
	}
	for i := int64(1); i <= 3; i++ {
		g.Set(i)
		s.Tick(i * 10)
	}
	if s.Len() != 0 || s.Export("run") != nil {
		t.Fatalf("live-only sampler recorded %d points", s.Len())
	}
	f := view.Load()
	if v, _ := f.Get("a.level"); f.Seq != 3 || f.Now != 30 || v != 3 {
		t.Fatalf("live frame %+v", f)
	}
	if s, v := NewLiveSampler(nil, 10, "run"); s != nil || v != nil {
		t.Fatal("nil registry must yield a nil sampler and view")
	}
}

// BenchmarkSamplerTickLive ticks a sampler with a published view over a
// registry of every sampled kind; steady state allocates nothing.
func BenchmarkSamplerTickLive(b *testing.B) {
	reg, c, g, h := sampleReg()
	for i := 0; i < 32; i++ {
		reg.Root().Scope("w").Gauge(fmt.Sprintf("g%02d", i)).Set(int64(i))
	}
	s := NewSampler(reg, 1, 0)
	s.Publish("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		now := int64(i)
		c.Inc()
		g.Set(now)
		h.Observe(now)
		s.Tick(now)
	}
}

func TestNewSamplerNilRegistry(t *testing.T) {
	s := NewSampler(nil, 10, 0)
	if s != nil {
		t.Fatal("nil registry must yield a nil sampler")
	}
	s.Tick(5) // must not panic
	if s.Interval() != 0 || s.Len() != 0 || s.Export("x") != nil {
		t.Fatal("nil sampler accessors not zero-valued")
	}
}

func TestSeriesMerge(t *testing.T) {
	a := SeriesData{Name: "m", Kind: "counter",
		Points: [][2]float64{{10, 1}, {20, 2}, {40, 4}}}
	b := SeriesData{Name: "m", Kind: "counter",
		Points: [][2]float64{{20, 3}, {30, 5}}}
	got := a.Merge(b)
	want := [][2]float64{{10, 1}, {20, 5}, {30, 5}, {40, 4}}
	if len(got.Points) != len(want) {
		t.Fatalf("merged %v, want %v", got.Points, want)
	}
	for i := range want {
		if got.Points[i] != want[i] {
			t.Fatalf("merged %v, want %v", got.Points, want)
		}
	}
	// Gauges take the max at shared instants instead of summing.
	a.Kind = "gauge"
	got = a.Merge(b)
	if got.Points[1] != [2]float64{20, 3} {
		t.Fatalf("gauge merge at t=20: %v, want {20 3}", got.Points[1])
	}
}

func TestSeriesDownsample(t *testing.T) {
	s := SeriesData{Name: "m", Kind: "gauge", Points: [][2]float64{
		{1, 1}, {2, 3}, {3, 5}, {4, 7}, {5, 9}}}
	got := s.Downsample(2)
	want := [][2]float64{{2, 2}, {4, 6}, {5, 9}}
	if len(got.Points) != len(want) {
		t.Fatalf("downsampled %v, want %v", got.Points, want)
	}
	for i := range want {
		if got.Points[i] != want[i] {
			t.Fatalf("downsampled %v, want %v", got.Points, want)
		}
	}
	if ds := s.Downsample(1); len(ds.Points) != len(s.Points) {
		t.Fatal("factor 1 must be identity")
	}
}

func TestSeriesNDJSONRoundTrip(t *testing.T) {
	in := []SeriesData{
		{Run: "r1", Name: "a", Kind: "counter", Points: [][2]float64{{10, 1}, {20, 2.5}}},
		{Name: "b", Kind: "gauge", Points: [][2]float64{{10, -3}}},
	}
	var buf bytes.Buffer
	if err := WriteSeriesNDJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadSeriesNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-trip %d series, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Run != in[i].Run || out[i].Name != in[i].Name || out[i].Kind != in[i].Kind {
			t.Fatalf("series %d header mismatch: %+v vs %+v", i, out[i], in[i])
		}
		for j := range in[i].Points {
			if out[i].Points[j] != in[i].Points[j] {
				t.Fatalf("series %d point %d: %v vs %v", i, j, out[i].Points[j], in[i].Points[j])
			}
		}
	}
}
