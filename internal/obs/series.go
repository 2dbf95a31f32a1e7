package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Time-series telemetry: a Sampler attached to a Registry snapshots every
// registered metric into fixed-capacity in-memory series at a regular
// simulated-clock tick (driven by sim.Engine.SetTick through
// machine.StartSampler — never by the wall clock, so two identical runs
// produce identical series). Design constraints mirror the rest of the
// package:
//
//   - Disabled is free: a nil *Sampler ignores Tick, so wiring code calls
//     unconditionally.
//   - Enabled stays off the allocator: columns (one per metric, three per
//     histogram: count/p50/p99) are closed over once at construction, and
//     every buffer is pre-allocated to capacity. A steady-state Tick
//     evaluates each column once into a scratch row and is pure field
//     reads and indexed stores — zero allocations — with or without a
//     LiveView attached (publishing stores the row into the view's one
//     fixed frame; see Publish). A live-only sampler (NewLiveSampler)
//     keeps no record buffers at all.
//   - Bounded memory with full-run coverage: when the buffers fill, the
//     sampler compacts in place — adjacent samples are averaged pairwise
//     and the keep-stride doubles — so a series always spans the whole
//     run at progressively coarser resolution instead of losing its head
//     (a plain ring) or its tail (a truncating buffer).

// defaultSeriesCap is the per-series point capacity when NewSampler is
// given cap <= 0.
const defaultSeriesCap = 512

// seriesCol is one sampled column: a name, a render kind, and a closure
// reading the live value from the registry's handle.
type seriesCol struct {
	name string
	kind string // "counter" | "gauge" | "quantile"
	eval func() float64
	vals []float64 // parallel to Sampler.times, len n; nil when live-only
}

// Sampler snapshots a Registry's metrics on a simulated-clock tick.
type Sampler struct {
	interval int64 // tick period (pcycles) the owner drives Tick at
	cap      int
	stride   int64 // record every stride-th tick (doubles on compaction)
	ticks    int64 // ticks seen
	lastT    int64
	any      bool
	times    []int64 // recorded sample times, len n; nil when live-only
	n        int
	cols     []seriesCol
	row      []float64 // the current tick's value of every column

	live *LiveView // optional; see Publish
}

// NewSampler builds a sampler over every metric currently registered in
// reg: counters, gauges and time-weighted gauges sample their level,
// probes their pulled value, and histograms expand into three columns
// (.count, .p50, .p99). Call after all wiring (machine.Observe) so the
// namespace is complete. interval is the tick period in pcycles the
// owner will drive Tick at; cap bounds the points kept per series
// (<= 0 selects 512, odd values round up — compaction halves in pairs).
// A nil registry yields a nil (disabled) sampler.
func NewSampler(reg *Registry, interval int64, capacity int) *Sampler {
	s := newSampler(reg, interval)
	if s == nil {
		return nil
	}
	if capacity <= 0 {
		capacity = defaultSeriesCap
	}
	if capacity%2 != 0 {
		capacity++
	}
	if capacity < 4 {
		capacity = 4
	}
	s.cap = capacity
	s.times = make([]int64, capacity)
	for i := range s.cols {
		s.cols[i].vals = make([]float64, capacity)
	}
	return s
}

// NewLiveSampler builds a sampler over reg's metrics, as NewSampler
// does, that only publishes: it keeps no record buffers (Len is 0 and
// Export returns nil), and every Tick stores its values into the
// returned view, labeled run. A nil registry yields nil, nil.
func NewLiveSampler(reg *Registry, interval int64, run string) (*Sampler, *LiveView) {
	s := newSampler(reg, interval)
	return s, s.Publish(run)
}

// newSampler builds the columns of a sampler over reg, without record
// buffers.
func newSampler(reg *Registry, interval int64) *Sampler {
	if reg == nil {
		return nil
	}
	names := make([]string, 0, len(reg.kinds))
	for name := range reg.kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	s := &Sampler{interval: interval, stride: 1}
	add := func(name, kind string, eval func() float64) {
		s.cols = append(s.cols, seriesCol{name: name, kind: kind, eval: eval})
	}
	for _, name := range names {
		switch reg.kinds[name] {
		case "counter":
			c := reg.counters[name]
			add(name, "counter", func() float64 { return float64(c.n) })
		case "gauge":
			g := reg.gauges[name]
			add(name, "gauge", func() float64 { return float64(g.v) })
		case "timegauge":
			g := reg.tgauges[name]
			add(name, "gauge", func() float64 { return float64(g.v) })
		case "histogram":
			h := reg.hists[name]
			add(name+".count", "counter", func() float64 { return float64(h.count) })
			add(name+".p50", "quantile", func() float64 { return float64(h.Quantile(0.50)) })
			add(name+".p99", "quantile", func() float64 { return float64(h.Quantile(0.99)) })
		case "probe-counter", "probe-gauge":
			p := reg.probes[name]
			kind := "gauge"
			if p.counter {
				kind = "counter"
			}
			add(name, kind, func() float64 { return float64(p.fn()) })
		}
	}
	s.row = make([]float64, len(s.cols))
	return s
}

// Interval returns the tick period the sampler was built for (0 on nil).
func (s *Sampler) Interval() int64 {
	if s == nil {
		return 0
	}
	return s.interval
}

// Tick samples every column at virtual time now. Nil-safe; a repeated or
// out-of-order time is ignored (the final flush after a run may land on
// the last boundary the engine already ticked). Each column is evaluated
// once, and only on a tick that records or publishes; steady state
// allocates nothing.
func (s *Sampler) Tick(now int64) {
	if s == nil {
		return
	}
	if s.any && now <= s.lastT {
		return
	}
	s.any = true
	s.lastT = now
	record := s.times != nil && s.ticks%s.stride == 0
	s.ticks++
	if !record && s.live == nil {
		return
	}
	for i := range s.cols {
		s.row[i] = s.cols[i].eval()
	}
	if record {
		if s.n == s.cap {
			s.compact()
		}
		for i := range s.cols {
			s.cols[i].vals[s.n] = s.row[i]
		}
		s.times[s.n] = now
		s.n++
	}
	if s.live != nil {
		s.live.store(now, s.row)
	}
}

// compact halves the buffers in place: each adjacent pair collapses to
// one point carrying the pair's later timestamp and the mean value, and
// the keep-stride doubles, so the series keeps covering the entire run
// within cap points.
func (s *Sampler) compact() {
	half := s.n / 2
	for i := 0; i < half; i++ {
		s.times[i] = s.times[2*i+1]
	}
	for ci := range s.cols {
		vals := s.cols[ci].vals
		for i := 0; i < half; i++ {
			vals[i] = (vals[2*i] + vals[2*i+1]) / 2
		}
	}
	s.n = half
	s.stride *= 2
}

// Len returns the number of recorded points per series.
func (s *Sampler) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// SeriesData is the serialized form of one sampled metric series: the
// unit of NDJSON/CSV export, of nwreport's sparklines, and of cross-run
// aggregation (Merge/Downsample). Points are [t_pcycles, value] pairs in
// ascending time order.
type SeriesData struct {
	Run    string       `json:"run,omitempty"`
	Name   string       `json:"name"`
	Kind   string       `json:"kind"`
	Points [][2]float64 `json:"points"`
}

// Export materializes every column as a SeriesData, labeled with run
// (the cell label in multi-run exports, "" for single runs). Nil-safe;
// a live-only sampler has nothing to export.
func (s *Sampler) Export(run string) []SeriesData {
	if s == nil || s.times == nil {
		return nil
	}
	out := make([]SeriesData, 0, len(s.cols))
	for i := range s.cols {
		c := &s.cols[i]
		pts := make([][2]float64, s.n)
		for j := 0; j < s.n; j++ {
			pts[j] = [2]float64{float64(s.times[j]), c.vals[j]}
		}
		out = append(out, SeriesData{Run: run, Name: c.name, Kind: c.kind, Points: pts})
	}
	return out
}

// Merge combines two series of the same metric across runs for sweep
// aggregation: the point sets are unioned by time; where both carry a
// point at the same instant, counters add and gauges/quantiles take the
// maximum. The receiver's Run/Name/Kind win.
func (s SeriesData) Merge(o SeriesData) SeriesData {
	out := SeriesData{Run: s.Run, Name: s.Name, Kind: s.Kind,
		Points: make([][2]float64, 0, len(s.Points)+len(o.Points))}
	i, j := 0, 0
	for i < len(s.Points) || j < len(o.Points) {
		switch {
		case j >= len(o.Points) || (i < len(s.Points) && s.Points[i][0] < o.Points[j][0]):
			out.Points = append(out.Points, s.Points[i])
			i++
		case i >= len(s.Points) || o.Points[j][0] < s.Points[i][0]:
			out.Points = append(out.Points, o.Points[j])
			j++
		default:
			a, b := s.Points[i][1], o.Points[j][1]
			v := a + b
			if s.Kind != "counter" {
				v = a
				if b > a {
					v = b
				}
			}
			out.Points = append(out.Points, [2]float64{s.Points[i][0], v})
			i++
			j++
		}
	}
	return out
}

// Downsample reduces the series to at most every factor-th resolution:
// groups of factor consecutive points collapse to one point at the
// group's last timestamp with the group's mean value. factor <= 1
// returns the series unchanged.
func (s SeriesData) Downsample(factor int) SeriesData {
	if factor <= 1 || len(s.Points) == 0 {
		return s
	}
	out := SeriesData{Run: s.Run, Name: s.Name, Kind: s.Kind,
		Points: make([][2]float64, 0, (len(s.Points)+factor-1)/factor)}
	for i := 0; i < len(s.Points); i += factor {
		end := i + factor
		if end > len(s.Points) {
			end = len(s.Points)
		}
		var sum float64
		for _, p := range s.Points[i:end] {
			sum += p[1]
		}
		out.Points = append(out.Points, [2]float64{
			s.Points[end-1][0], sum / float64(end-i)})
	}
	return out
}

// WriteSeriesNDJSON writes one JSON object per line per series — the
// format -series-out emits and nwreport loads.
func WriteSeriesNDJSON(w io.Writer, series []SeriesData) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range series {
		if err := enc.Encode(&series[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSeriesNDJSON decodes a WriteSeriesNDJSON stream.
func ReadSeriesNDJSON(r io.Reader) ([]SeriesData, error) {
	dec := json.NewDecoder(r)
	var out []SeriesData
	for dec.More() {
		var s SeriesData
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("obs: decoding series: %w", err)
		}
		out = append(out, s)
	}
	return out, nil
}
