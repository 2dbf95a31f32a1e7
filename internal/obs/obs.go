// Package obs is the simulator's observability layer: a hierarchical
// metrics registry (counters, simulated-time-weighted gauges, log2
// histograms, probed counters and gauges), span-style event tracing on
// the simulated clock with Chrome trace-event export, and run manifests
// that make two runs diffable (params + seed + metric snapshot +
// determinism digest).
//
// Design constraints, in order:
//
//  1. Disabled must be free. Every hot-path operation (Counter.Inc,
//     Histogram.Observe, Trace.Span, ...) is a nil-safe method: a
//     subsystem holds nil handles until someone wires a registry in, and
//     the disabled cost is one predictable branch — no allocation, no
//     atomic, no map lookup, no change to simulation behavior. Fixed-seed
//     output stays byte-identical with obs off or on: metrics only read
//     the simulation, never steer it.
//  2. Enabled must stay off the allocator. Handles are created once at
//     wiring time (Machine.Observe); recording is a field update. Only
//     tracing appends to a buffer (bounded by Trace.Max).
//  3. Snapshots are deterministic: sorted by fully-qualified metric name,
//     values are integers, and two identical runs produce identical
//     snapshots (and therefore identical manifests modulo wall time).
//
// Metrics come in two flavors: live handles updated on the hot path, and
// probes — closures evaluated lazily at Snapshot time, for values a
// subsystem already tracks (free-frame counts, link busy time, cache hit
// totals). Probes cost nothing while the simulation runs, even with obs
// enabled, and are the preferred flavor whenever a value can be pulled.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
)

// Counter is a monotonically increasing count. The zero value is ready;
// a nil *Counter ignores updates, so disabled instrumentation costs one
// branch.
type Counter struct{ n uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.n++
	}
}

// Add adds d.
func (c *Counter) Add(d uint64) {
	if c != nil {
		c.n += d
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n
}

// TimeGauge is a level integrated over simulated time: Set(now, v)
// accumulates the previous level weighted by the elapsed virtual
// interval, so Mean() is the true time-weighted average (e.g. disk queue
// depth over simulated time, ring occupancy). Updates must carry
// non-decreasing times, which the simulation clock guarantees.
type TimeGauge struct {
	v        int64
	peak     int64
	firstT   int64
	lastT    int64
	started  bool
	integral int64 // sum of v * dt over [firstT, lastT]
}

// Set records the level v at virtual time now.
func (g *TimeGauge) Set(now, v int64) {
	if g == nil {
		return
	}
	if !g.started {
		g.started = true
		g.firstT = now
	} else if now > g.lastT {
		g.integral += g.v * (now - g.lastT)
	}
	g.lastT = now
	g.v = v
	if v > g.peak {
		g.peak = v
	}
}

// Value returns the most recent level.
func (g *TimeGauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Peak returns the highest level ever set.
func (g *TimeGauge) Peak() int64 {
	if g == nil {
		return 0
	}
	return g.peak
}

// Mean returns the time-weighted average level over the observed span,
// or 0 if fewer than two distinct instants were seen.
func (g *TimeGauge) Mean() float64 {
	if g == nil || !g.started || g.lastT == g.firstT {
		return 0
	}
	return float64(g.integral) / float64(g.lastT-g.firstT)
}

// histBuckets is the bucket count of a log2 histogram: bucket 0 holds
// values <= 0, bucket i holds values with bit length i (i.e. the range
// [2^(i-1), 2^i - 1]).
const histBuckets = 65

// Histogram is a log2 histogram of int64 samples (typically durations in
// pcycles). Recording is branch-light and allocation-free; a nil
// *Histogram ignores samples.
type Histogram struct {
	count, sum int64
	min, max   int64
	buckets    [histBuckets]int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	h.buckets[i]++
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the average sample, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile estimates the q-th quantile (0 <= q <= 1) from the log2
// buckets: the midpoint of the bucket holding the q-th sample, clamped to
// the observed [min, max]. Resolution is a power of two — good enough
// for the order-of-magnitude latency trends telemetry plots, at zero
// extra recording cost. Returns 0 with no samples.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q >= 1 {
		return h.max
	}
	target := int64(q * float64(h.count))
	if target < 1 {
		target = 1
	}
	var seen int64
	v := h.max
	for i, n := range &h.buckets { // by pointer: no copy of the array
		seen += n
		if seen >= target {
			if i == 0 {
				v = 0
				break
			}
			lo := int64(1) << (i - 1)
			hi := int64(1)<<i - 1
			v = lo + (hi-lo)/2
			break
		}
	}
	if v < h.min {
		v = h.min
	}
	if v > h.max {
		v = h.max
	}
	return v
}

// probe is a lazily evaluated metric.
type probe struct {
	counter bool // render as a counter (monotone) vs a gauge (level)
	fn      func() int64
}

// Registry owns the metric namespace. Metrics are registered through
// Scopes; names are dot-joined paths ("disk6.dirty_slots"). Get-or-create
// semantics let several emitters share one metric (e.g. every node's
// frame pool incrementing the same "vm.reserve" counter); registering a
// name under two different kinds panics, naming the wiring bug. A name's
// kind is the typed map that holds it.
//
// Snapshot (and Sampler column) order is a pure function of the set of
// registered names — bytewise sort of the fully qualified name — never of
// registration order. Names that share a prefix ("ring.chan1" vs
// "ring.chan10", "a.b" vs "a.b.c") therefore cannot interleave
// differently depending on which subsystem wired first; see
// TestSnapshotOrderIndependentOfRegistration.
type Registry struct {
	counters map[string]*Counter
	tgauges  map[string]*TimeGauge
	hists    map[string]*Histogram
	probes   map[string]probe
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		tgauges:  make(map[string]*TimeGauge),
		hists:    make(map[string]*Histogram),
		probes:   make(map[string]probe),
	}
}

// Root returns the registry's root scope. Nil-safe: a nil registry has a
// nil root, and every metric created under a nil scope is nil (a no-op
// handle), so wiring code never branches on enablement.
func (r *Registry) Root() *Scope {
	if r == nil {
		return nil
	}
	return &Scope{r: r}
}

// claim panics when name is already registered: the caller has checked
// its own kind's map, so a name found here is held by another kind.
func (r *Registry) claim(name, kind string) {
	prev := ""
	if _, ok := r.counters[name]; ok {
		prev = "counter"
	} else if _, ok := r.tgauges[name]; ok {
		prev = "timegauge"
	} else if _, ok := r.hists[name]; ok {
		prev = "histogram"
	} else if p, ok := r.probes[name]; ok {
		prev = "probe-gauge"
		if p.counter {
			prev = "probe-counter"
		}
	}
	if prev != "" {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, prev, kind))
	}
}

// Scope is a named sub-tree of the metric namespace.
type Scope struct {
	r      *Registry
	prefix string
}

// full returns the fully qualified metric name.
func (s *Scope) full(name string) string {
	if s.prefix == "" {
		return name
	}
	return s.prefix + "." + name
}

// Scope returns the child scope `name`. Nil-safe.
func (s *Scope) Scope(name string) *Scope {
	if s == nil {
		return nil
	}
	return &Scope{r: s.r, prefix: s.full(name)}
}

// Counter returns (creating on first use) the counter `name`. Nil-safe:
// a nil scope yields a nil (no-op) counter.
func (s *Scope) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	n := s.full(name)
	c, ok := s.r.counters[n]
	if !ok {
		s.r.claim(n, "counter")
		c = &Counter{}
		s.r.counters[n] = c
	}
	return c
}

// TimeGauge returns (creating on first use) the time-weighted gauge
// `name`. Nil-safe.
func (s *Scope) TimeGauge(name string) *TimeGauge {
	if s == nil {
		return nil
	}
	n := s.full(name)
	g, ok := s.r.tgauges[n]
	if !ok {
		s.r.claim(n, "timegauge")
		g = &TimeGauge{}
		s.r.tgauges[n] = g
	}
	return g
}

// Histogram returns (creating on first use) the histogram `name`.
// Nil-safe.
func (s *Scope) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	n := s.full(name)
	h, ok := s.r.hists[n]
	if !ok {
		s.r.claim(n, "histogram")
		h = &Histogram{}
		s.r.hists[n] = h
	}
	return h
}

// ProbeCounter registers fn as a lazily evaluated monotone count,
// sampled at Snapshot time. Registering the same probe name twice
// panics. Nil-safe (no-op on a nil scope).
func (s *Scope) ProbeCounter(name string, fn func() int64) {
	s.addProbe(name, fn, true)
}

// ProbeGauge registers fn as a lazily evaluated level. Nil-safe.
func (s *Scope) ProbeGauge(name string, fn func() int64) {
	s.addProbe(name, fn, false)
}

func (s *Scope) addProbe(name string, fn func() int64, counter bool) {
	if s == nil {
		return
	}
	n := s.full(name)
	kind := "probe-gauge"
	if counter {
		kind = "probe-counter"
	}
	if _, ok := s.r.probes[n]; ok {
		panic(fmt.Sprintf("obs: probe %q registered twice", n))
	}
	s.r.claim(n, kind)
	s.r.probes[n] = probe{counter: counter, fn: fn}
}

// size returns the number of registered names.
func (r *Registry) size() int {
	return len(r.counters) + len(r.tgauges) + len(r.hists) + len(r.probes)
}

// Bucket is one occupied histogram bucket: Lo is the bucket's lower
// bound (0 for the <= 0 bucket, otherwise 2^(i-1)).
type Bucket struct {
	Lo int64 `json:"lo"`
	N  int64 `json:"n"`
}

// MetricValue is one snapshotted metric. Fields beyond Name/Kind are
// populated per kind; zero-valued fields are omitted from JSON.
type MetricValue struct {
	Name string `json:"name"`
	Kind string `json:"kind"`

	Value int64 `json:"value,omitempty"` // counter count / gauge level
	Peak  int64 `json:"peak,omitempty"`  // timegauge

	Count int64 `json:"count,omitempty"` // histogram samples
	Sum   int64 `json:"sum,omitempty"`
	Min   int64 `json:"min,omitempty"`
	Max   int64 `json:"max,omitempty"`

	Integral int64 `json:"integral,omitempty"` // timegauge: sum of v*dt
	Span     int64 `json:"span,omitempty"`     // timegauge: observed pcycles

	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time reading of every registered metric, sorted
// by name. Identical runs produce identical snapshots.
type Snapshot []MetricValue

// Snapshot evaluates every metric (including probes) and returns the
// sorted result. Safe on a nil registry (returns nil).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	out := make(Snapshot, 0, r.size())
	for name, c := range r.counters {
		out = append(out, MetricValue{Name: name, Kind: "counter", Value: int64(c.n)})
	}
	for name, g := range r.tgauges {
		span := int64(0)
		if g.started {
			span = g.lastT - g.firstT
		}
		out = append(out, MetricValue{Name: name, Kind: "timegauge",
			Value: g.v, Peak: g.peak, Integral: g.integral, Span: span})
	}
	for name, h := range r.hists {
		mv := MetricValue{Name: name, Kind: "histogram",
			Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
		for i, n := range h.buckets {
			if n == 0 {
				continue
			}
			lo := int64(0)
			if i > 0 {
				lo = int64(1) << (i - 1)
			}
			mv.Buckets = append(mv.Buckets, Bucket{Lo: lo, N: n})
		}
		out = append(out, mv)
	}
	for name, p := range r.probes {
		kind := "gauge"
		if p.counter {
			kind = "counter"
		}
		out = append(out, MetricValue{Name: name, Kind: kind, Value: p.fn()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Get returns the snapshot entry for name, or false.
func (s Snapshot) Get(name string) (MetricValue, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].Name >= name })
	if i < len(s) && s[i].Name == name {
		return s[i], true
	}
	return MetricValue{}, false
}

// Merge combines two snapshots by metric name for cross-run aggregation:
// counters, histogram tallies, integrals and spans add; gauge levels and
// peaks take the maximum (a merged gauge reads as a high-water mark).
// Metrics present in only one input pass through. Kind mismatches keep
// the receiver's entry. The result is sorted. Neither input is modified.
func (s Snapshot) Merge(other Snapshot) Snapshot {
	f := Fold{out: make(Snapshot, 0, len(s)+len(other))}
	f.Add(s)
	f.Add(other)
	return f.Snapshot()
}

// Fold accumulates snapshots in place: after Add(s1), ..., Add(sn),
// Snapshot reads the same as s1.Merge(s2)...Merge(sn), by the same
// per-kind rules, without copying the running total or indexing its
// names again per snapshot. No added snapshot is modified. The zero
// value is an empty fold.
type Fold struct {
	out    Snapshot
	byName map[string]int
}

// Add folds s into the running total.
func (f *Fold) Add(s Snapshot) {
	if f.byName == nil {
		f.byName = make(map[string]int, len(s))
		if f.out == nil {
			f.out = make(Snapshot, 0, len(s))
		}
	}
	for i := range s {
		mv := &s[i]
		if j, ok := f.byName[mv.Name]; ok {
			f.out[j].fold(mv)
			continue
		}
		f.byName[mv.Name] = len(f.out)
		f.out = append(f.out, *mv)
	}
}

// Snapshot returns the running total sorted by name. The result is the
// fold's own storage: a later Add updates it in place.
func (f *Fold) Snapshot() Snapshot {
	sort.Slice(f.out, func(i, j int) bool { return f.out[i].Name < f.out[j].Name })
	for i := range f.out {
		f.byName[f.out[i].Name] = i
	}
	return f.out
}

// fold adds mv (same name) into m by the rules of Snapshot.Merge. A
// kind mismatch keeps m as it is. Histogram buckets are merged into a
// new slice, so mv's buckets are never written.
func (m *MetricValue) fold(mv *MetricValue) {
	if m.Kind != mv.Kind {
		return
	}
	switch mv.Kind {
	case "counter":
		m.Value += mv.Value
	case "gauge", "timegauge":
		m.Value = max(m.Value, mv.Value)
		m.Peak = max(m.Peak, mv.Peak)
		m.Integral += mv.Integral
		m.Span += mv.Span
	case "histogram":
		if mv.Count > 0 {
			if m.Count == 0 || mv.Min < m.Min {
				m.Min = mv.Min
			}
			if m.Count == 0 || mv.Max > m.Max {
				m.Max = mv.Max
			}
		}
		m.Count += mv.Count
		m.Sum += mv.Sum
		m.Buckets = mergeBuckets(m.Buckets, mv.Buckets)
	}
}

// mergeBuckets adds two sorted occupied-bucket lists.
func mergeBuckets(a, b []Bucket) []Bucket {
	out := make([]Bucket, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i].Lo < b[j].Lo):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j].Lo < a[i].Lo:
			out = append(out, b[j])
			j++
		default:
			out = append(out, Bucket{Lo: a[i].Lo, N: a[i].N + b[j].N})
			i++
			j++
		}
	}
	return out
}
