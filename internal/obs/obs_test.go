package obs

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

// Everything must be callable through nil handles: that is the entire
// disabled-mode contract.
func TestNilHandlesAreNoOps(t *testing.T) {
	var (
		c  *Counter
		tg *TimeGauge
		h  *Histogram
		tr *Trace
		r  *Registry
	)
	c.Inc()
	c.Add(7)
	tg.Set(10, 4)
	h.Observe(123)
	tr.Span(0, "x", 1, 2, 0)
	tr.Instant(0, "y", 3, 0)
	tr.SetTrack(0, "cpu0")
	if c.Value() != 0 || tg.Value() != 0 || h.Count() != 0 || tr.Len() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if r.Snapshot() != nil || r.Root() != nil {
		t.Fatal("nil registry must snapshot to nil")
	}
	// A nil root scope propagates nil to everything below it.
	sc := r.Root().Scope("disk").Scope("0")
	if sc != nil {
		t.Fatal("nil scope must stay nil")
	}
	if sc.Counter("reads") != nil || sc.Histogram("lat") != nil {
		t.Fatal("metrics under a nil scope must be nil")
	}
	sc.ProbeCounter("x", func() int64 { return 1 }) // must not panic
}

// Recording through live handles must not allocate: the hot path pays a
// field update, nothing more.
func TestLiveHandlesZeroAlloc(t *testing.T) {
	r := NewRegistry()
	sc := r.Root().Scope("disk")
	c := sc.Counter("reads")
	tg := sc.TimeGauge("dirty")
	h := sc.Histogram("lat")
	now := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		now += 10
		tg.Set(now, 2)
		h.Observe(now)
	})
	if allocs != 0 {
		t.Fatalf("metric updates allocated %v allocs/op, want 0", allocs)
	}
}

func TestScopeNamesAndSharing(t *testing.T) {
	r := NewRegistry()
	root := r.Root()
	a := root.Scope("vm").Counter("reserve")
	b := root.Scope("vm").Counter("reserve")
	if a != b {
		t.Fatal("same name must return the same counter (shared across emitters)")
	}
	a.Add(2)
	b.Inc()
	snap := r.Snapshot()
	mv, ok := snap.Get("vm.reserve")
	if !ok || mv.Value != 3 || mv.Kind != "counter" {
		t.Fatalf("vm.reserve = %+v, ok=%v; want counter value 3", mv, ok)
	}
}

// A name's kind is the typed map that holds it: registering a name
// under a second kind panics for every pair of kinds, and so does a
// second probe of the same name, while a second live handle of the same
// kind is the shared one.
func TestCrossKindCollisionPanics(t *testing.T) {
	register := map[string]func(*Scope){
		"counter":       func(sc *Scope) { sc.Counter("x") },
		"timegauge":     func(sc *Scope) { sc.TimeGauge("x") },
		"histogram":     func(sc *Scope) { sc.Histogram("x") },
		"probe-counter": func(sc *Scope) { sc.ProbeCounter("x", func() int64 { return 1 }) },
		"probe-gauge":   func(sc *Scope) { sc.ProbeGauge("x", func() int64 { return 1 }) },
	}
	for first, reg1 := range register {
		for second, reg2 := range register {
			sc := NewRegistry().Root()
			reg1(sc)
			probe := strings.HasPrefix(first, "probe") || strings.HasPrefix(second, "probe")
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				reg2(sc)
				return false
			}()
			if want := first != second || probe; panicked != want {
				t.Errorf("registering x as %s then %s: panicked %v, want %v", first, second, panicked, want)
			}
		}
	}
}

func TestTimeGaugeIntegration(t *testing.T) {
	var g TimeGauge
	// Level 2 over [0,10), level 5 over [10,30): mean = (20+100)/30 = 4.
	g.Set(0, 2)
	g.Set(10, 5)
	g.Set(30, 0)
	if got := g.Mean(); got != 4 {
		t.Fatalf("Mean = %v, want 4", got)
	}
	if g.Peak() != 5 {
		t.Fatalf("Peak = %d, want 5", g.Peak())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 1010 {
		t.Fatalf("count/sum = %d/%d, want 6/1010", h.Count(), h.Sum())
	}
	// 0 → bucket 0; 1 → len 1; 2,3 → len 2; 4 → len 3; 1000 → len 10.
	want := []int64{1, 1, 2, 1, 1}
	got := []int64{h.buckets[0], h.buckets[1], h.buckets[2], h.buckets[3], h.buckets[10]}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
}

func TestSnapshotDeterministicAndSorted(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		root := r.Root()
		root.Scope("z").Counter("c").Add(1)
		root.Scope("a").TimeGauge("g").Set(0, 2)
		root.Scope("m").Histogram("h").Observe(9)
		root.Scope("p").ProbeCounter("n", func() int64 { return 42 })
		root.Scope("p").ProbeGauge("lvl", func() int64 { return -3 })
		return r.Snapshot()
	}
	s1, s2 := build(), build()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("identical registries must snapshot identically")
	}
	for i := 1; i < len(s1); i++ {
		if s1[i-1].Name >= s1[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", s1[i-1].Name, s1[i].Name)
		}
	}
	if mv, _ := s1.Get("p.n"); mv.Value != 42 || mv.Kind != "counter" {
		t.Fatalf("probe counter = %+v, want 42", mv)
	}
	if mv, _ := s1.Get("p.lvl"); mv.Value != -3 || mv.Kind != "gauge" {
		t.Fatalf("probe gauge = %+v, want -3", mv)
	}
}

func TestSnapshotMerge(t *testing.T) {
	mk := func(c int64, gv, gp int64, hv int64) Snapshot {
		r := NewRegistry()
		root := r.Root()
		root.Counter("c").Add(uint64(c))
		g := root.TimeGauge("g")
		g.Set(0, gp)
		g.Set(1, gv)
		root.Histogram("h").Observe(hv)
		return r.Snapshot()
	}
	a := mk(3, 1, 9, 4)
	b := mk(5, 2, 7, 100)
	m := a.Merge(b)
	if mv, _ := m.Get("c"); mv.Value != 8 {
		t.Fatalf("merged counter = %d, want 8", mv.Value)
	}
	if mv, _ := m.Get("g"); mv.Value != 2 || mv.Peak != 9 {
		t.Fatalf("merged gauge = %+v, want value 2 peak 9", mv)
	}
	if mv, _ := m.Get("h"); mv.Count != 2 || mv.Sum != 104 || mv.Min != 4 || mv.Max != 100 {
		t.Fatalf("merged histogram = %+v", mv)
	}
	// Disjoint names pass through.
	r := NewRegistry()
	r.Root().Counter("only").Inc()
	m2 := a.Merge(r.Snapshot())
	if mv, ok := m2.Get("only"); !ok || mv.Value != 1 {
		t.Fatalf("disjoint metric lost in merge: %+v ok=%v", mv, ok)
	}
}

func TestTraceCapDrops(t *testing.T) {
	tr := NewTrace(2)
	tr.Span(0, "a", 0, 1, 0)
	tr.Instant(0, "b", 2, 0)
	tr.Span(0, "c", 3, 4, 0)
	if tr.Len() != 2 || tr.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want 2/1", tr.Len(), tr.Dropped())
	}
}

// Past the cap, a trace keeps the earliest events and counts every
// later one as dropped, whatever its kind.
func TestTraceCapKeepsEarliest(t *testing.T) {
	tr := NewTrace(3)
	for i := int64(0); i < 10; i++ {
		if i%2 == 0 {
			tr.Span(0, "fault", i, i+1, i)
		} else {
			tr.Instant(0, "evict", i, i)
		}
	}
	if tr.Len() != 3 || tr.Dropped() != 7 {
		t.Fatalf("len=%d dropped=%d, want 3/7", tr.Len(), tr.Dropped())
	}
	sp, in := tr.Spans(), tr.Instants()
	if len(sp) != 2 || sp[0].Page != 0 || sp[1].Page != 2 {
		t.Fatalf("spans %+v, want pages 0 and 2", sp)
	}
	if len(in) != 1 || in[0].Page != 1 {
		t.Fatalf("instants %+v, want page 1", in)
	}
}

// A nil trace reads as empty through every accessor and exports as an
// empty Chrome document.
func TestNilTraceReadsEmpty(t *testing.T) {
	var tr *Trace
	tr.Span(1, "fault", 0, 5, 9)
	tr.Instant(1, "evict", 3, 9)
	tr.SetTrack(1, "cpu1")
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Spans() != nil || tr.Instants() != nil {
		t.Fatal("nil trace not empty")
	}
	var buf strings.Builder
	if err := WriteChromeMulti(&buf, []NamedTrace{{"none", tr}}); err != nil {
		t.Fatalf("WriteChromeMulti on nil trace: %v", err)
	}
	if strings.Contains(buf.String(), `"fault"`) {
		t.Fatalf("nil trace exported an event: %s", buf.String())
	}
}

// Snapshot order is the bytewise sort of the full dotted name and must
// not depend on registration order — including the adversarial case of
// metrics sharing a name prefix ("ring.chan1" vs "ring.chan10", "a.b"
// vs "a.bc"), where an order-sensitive or segment-wise comparison could
// interleave differently depending on which was registered first.
func TestSnapshotOrderIndependentOfRegistration(t *testing.T) {
	names := []string{"ring.chan1", "ring.chan10", "ring.chan2", "a.b", "a.bc", "a.b.c"}
	build := func(order []string) []string {
		reg := NewRegistry()
		root := reg.Root()
		for _, n := range order {
			// Register the dotted path as nested scopes so prefixes
			// genuinely share Scope objects.
			parts := strings.Split(n, ".")
			sc := root
			for _, p := range parts[:len(parts)-1] {
				sc = sc.Scope(p)
			}
			sc.Counter(parts[len(parts)-1]).Inc()
		}
		snap := reg.Snapshot()
		got := make([]string, len(snap))
		for i, mv := range snap {
			got[i] = mv.Name
		}
		return got
	}
	fwd := build(names)
	rev := build([]string{"a.b.c", "a.bc", "a.b", "ring.chan2", "ring.chan10", "ring.chan1"})
	if len(fwd) != len(names) || len(rev) != len(names) {
		t.Fatalf("snapshot sizes %d/%d, want %d", len(fwd), len(rev), len(names))
	}
	for i := range fwd {
		if fwd[i] != rev[i] {
			t.Fatalf("registration order perturbed snapshot:\n fwd %v\n rev %v", fwd, rev)
		}
	}
	if !sort.StringsAreSorted(fwd) {
		t.Fatalf("snapshot not sorted: %v", fwd)
	}
}

// Quantile interpolates from the log2 buckets: exact enough to land in
// the right bucket, clamped to the observed min/max, zero when empty.
func TestHistogramQuantile(t *testing.T) {
	var h *Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile")
	}
	reg := NewRegistry()
	h = reg.Root().Histogram("lat")
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile")
	}
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	p50 := h.Quantile(0.5)
	if p50 < 256 || p50 > 1000 {
		t.Fatalf("p50 = %d, want within the [512,1024) bucket's reach of 500", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < p50 {
		t.Fatalf("p99 %d < p50 %d", p99, p50)
	}
	if p99 > 1000 {
		t.Fatalf("p99 %d exceeds observed max 1000 (must clamp)", p99)
	}
	if got := h.Quantile(0); got < 1 || got > 256 {
		t.Fatalf("p0 = %d, want clamped near observed min 1", got)
	}
	if got := h.Quantile(1); got != 1000 {
		t.Fatalf("p100 = %d, want observed max 1000", got)
	}
	// A single observation pins every quantile to that value.
	h2 := reg.Root().Histogram("one")
	h2.Observe(42)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h2.Quantile(q); got != 42 {
			t.Fatalf("single-sample q%.2f = %d, want 42", q, got)
		}
	}
}

// A Fold over N snapshots reads the same as the left fold of
// Snapshot.Merge, also when more snapshots are added after a read, and
// it never writes into an added snapshot.
func TestFoldEqualsLeftMerge(t *testing.T) {
	ins := []Snapshot{
		{
			{Name: "c", Kind: "counter", Value: 3},
			{Name: "h", Kind: "histogram", Count: 2, Sum: 5, Min: 1, Max: 4,
				Buckets: []Bucket{{Lo: 1, N: 1}, {Lo: 4, N: 1}}},
			{Name: "x", Kind: "gauge", Value: 2, Peak: 5},
		},
		{
			{Name: "b.only", Kind: "timegauge", Value: 1, Peak: 3, Integral: 40, Span: 20},
			{Name: "c", Kind: "counter", Value: 4},
			{Name: "h", Kind: "histogram", Count: 3, Sum: 10, Min: 2, Max: 5,
				Buckets: []Bucket{{Lo: 1, N: 1}, {Lo: 4, N: 2}}},
			{Name: "x", Kind: "counter", Value: 9}, // kind conflict: the first kind wins
		},
		{
			{Name: "a.first", Kind: "counter", Value: 1},
			{Name: "b.only", Kind: "timegauge", Value: 2, Peak: 2, Integral: 10, Span: 5},
			{Name: "h", Kind: "histogram", Count: 1, Sum: 2, Min: 2, Max: 2,
				Buckets: []Bucket{{Lo: 2, N: 1}}},
			{Name: "h.empty", Kind: "histogram"},
			{Name: "x", Kind: "gauge", Value: 1, Peak: 7},
		},
	}
	deepCopy := func(ss []Snapshot) []Snapshot {
		out := make([]Snapshot, len(ss))
		for i, s := range ss {
			out[i] = append(Snapshot(nil), s...)
			for j := range out[i] {
				out[i][j].Buckets = append([]Bucket(nil), s[j].Buckets...)
			}
		}
		return out
	}
	orig := deepCopy(ins)

	var f Fold
	var want Snapshot
	for i, s := range ins {
		f.Add(s)
		want = want.Merge(s)
		if got := f.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d snapshots:\nfold  %+v\nmerge %+v", i+1, got, want)
		}
	}
	got := f.Snapshot()
	if names := len(got); names != 6 {
		t.Fatalf("fold has %d names, want 6: %+v", names, got)
	}
	if mv, _ := got.Get("c"); mv.Value != 7 {
		t.Fatalf("counter = %+v, want 7", mv)
	}
	if mv, _ := got.Get("x"); mv.Kind != "gauge" || mv.Value != 2 || mv.Peak != 7 {
		t.Fatalf("kind-conflicted gauge = %+v, want gauge value 2 peak 7", mv)
	}
	if mv, _ := got.Get("b.only"); mv.Value != 2 || mv.Peak != 3 || mv.Integral != 50 || mv.Span != 25 {
		t.Fatalf("timegauge = %+v", mv)
	}
	mv, _ := got.Get("h")
	wantB := []Bucket{{Lo: 1, N: 2}, {Lo: 2, N: 1}, {Lo: 4, N: 3}}
	if mv.Count != 6 || mv.Sum != 17 || mv.Min != 1 || mv.Max != 5 || !reflect.DeepEqual(mv.Buckets, wantB) {
		t.Fatalf("histogram = %+v, want count 6 sum 17 min 1 max 5 buckets %v", mv, wantB)
	}
	if !reflect.DeepEqual(ins, orig) {
		t.Fatalf("folding modified an input:\n%+v\nwant\n%+v", ins, orig)
	}
}
