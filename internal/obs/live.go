package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Live run monitoring: a Sampler can publish each tick's values into a
// LiveView — one fixed frame guarded by a sequence counter (a seqlock) —
// so concurrent readers (the -watch terminal dashboard, the -http
// Prometheus/NDJSON server) copy out a consistent frame without taking
// any lock and without the simulation ever waiting on an observer. The
// simulation side stores each tick's values into the frame in place and
// allocates nothing; a reader pays for the copy it loads. Readers poll
// at wall-clock rates and are invisible to the deterministic virtual
// clock.

// LiveSample is one loaded telemetry frame. Names/Kinds are shared
// immutable slices (identical across a view's frames); Values is the
// reader's own copy, never mutated by later ticks.
type LiveSample struct {
	Run    string
	Now    int64 // virtual time of the frame (pcycles)
	Seq    int64 // publication counter, strictly increasing per view
	Names  []string
	Kinds  []string
	Values []float64
}

// Get returns the frame's value for a metric name, or false.
func (s *LiveSample) Get(name string) (float64, bool) {
	i := sort.SearchStrings(s.Names, name)
	if i < len(s.Names) && s.Names[i] == name {
		return s.Values[i], true
	}
	return 0, false
}

// LiveView is the lock-free hand-off point between one sampler and its
// observers: a single fixed frame that the sampler overwrites every tick
// under a seqlock. The writer makes seq odd, stores the frame, and makes
// seq even again; it never waits and never allocates. A reader copies
// the frame and keeps the copy only if seq was even and unchanged
// around it. Every word is atomic, so the protocol is also race-free
// under the Go memory model. One sampler writes a view; any number of
// goroutines may Load it.
type LiveView struct {
	seq   atomic.Uint64 // 2 × frames published; odd while one is stored
	now   atomic.Int64
	vals  []atomic.Uint64 // math.Float64bits of each column
	run   string
	names []string // shared immutable column names
	kinds []string
}

// Load returns a copy of the most recent frame, or nil before the first
// tick.
func (v *LiveView) Load() *LiveSample {
	if v == nil || v.seq.Load() == 0 {
		return nil
	}
	vals := make([]float64, len(v.vals))
	for {
		seq := v.seq.Load()
		if seq&1 != 0 {
			runtime.Gosched() // the writer is mid-frame
			continue
		}
		now := v.now.Load()
		for i := range v.vals {
			vals[i] = math.Float64frombits(v.vals[i].Load())
		}
		if v.seq.Load() == seq {
			return &LiveSample{Run: v.run, Now: now, Seq: int64(seq / 2),
				Names: v.names, Kinds: v.kinds, Values: vals}
		}
	}
}

// store publishes one frame: values row at virtual time now. Only the
// words that changed are written: an atomic store is a locked
// instruction on common hardware, an atomic load of a word only this
// writer stores is a plain read, and between ticks most columns hold.
func (v *LiveView) store(now int64, row []float64) {
	v.seq.Add(1)
	v.now.Store(now)
	for i, x := range row {
		if bits := math.Float64bits(x); v.vals[i].Load() != bits {
			v.vals[i].Store(bits)
		}
	}
	v.seq.Add(1)
}

// Publish attaches a LiveView to the sampler and returns it: every
// subsequent Tick additionally stores its values into the view's frame,
// labeled run, without allocating. Nil-safe (returns nil).
func (s *Sampler) Publish(run string) *LiveView {
	if s == nil {
		return nil
	}
	v := &LiveView{
		vals:  make([]atomic.Uint64, len(s.cols)),
		run:   run,
		names: s.names,
		kinds: s.kinds,
	}
	s.live = v
	return v
}

// LiveSet collects the views of every in-flight run (one for nwsim, one
// per concurrently executing cell for nwbench sweeps). Registration is
// mutex-guarded; reading loads a copy of each view's frame.
type LiveSet struct {
	mu    sync.Mutex
	views []*LiveView
}

// Add registers a view. Nil-safe on both sides.
func (ls *LiveSet) Add(v *LiveView) {
	if ls == nil || v == nil {
		return
	}
	ls.mu.Lock()
	ls.views = append(ls.views, v)
	ls.mu.Unlock()
}

// Frames returns the latest frame of every registered view that has
// published at least once, in registration order.
func (ls *LiveSet) Frames() []*LiveSample {
	if ls == nil {
		return nil
	}
	ls.mu.Lock()
	views := append([]*LiveView(nil), ls.views...)
	ls.mu.Unlock()
	out := make([]*LiveSample, 0, len(views))
	for _, v := range views {
		if f := v.Load(); f != nil {
			out = append(out, f)
		}
	}
	return out
}

// LiveServer serves the telemetry of a LiveSet over HTTP:
//
//	/metrics  Prometheus text exposition of every run's latest frame
//	/series   NDJSON stream: one line per newly published frame
//	/         plain-text index
//
// The server reads only published frames, so it can run for the whole
// life of a long sweep without touching simulation determinism.
type LiveServer struct {
	set *LiveSet
	srv *http.Server
	ln  net.Listener
}

// StartLiveServer listens on addr (e.g. ":8399") and serves set in a
// background goroutine. It fails fast if the address cannot be bound.
func StartLiveServer(addr string, set *LiveSet) (*LiveServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: live server: %w", err)
	}
	s := &LiveServer{set: set, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/series", s.handleSeries)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln) //nolint:errcheck // Close's ErrServerClosed is the normal exit
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *LiveServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener down.
func (s *LiveServer) Close() error { return s.srv.Close() }

func (s *LiveServer) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	frames := s.set.Frames()
	fmt.Fprintf(w, "nwcache live telemetry — %d run(s)\n\n", len(frames))
	for _, f := range frames {
		fmt.Fprintf(w, "  %-40s t=%d pcycles (%d frames)\n", f.Run, f.Now, f.Seq)
	}
	fmt.Fprintf(w, "\nendpoints: /metrics (Prometheus text), /series (NDJSON stream)\n")
}

// promName sanitizes a dotted metric name into a Prometheus metric name.
func promName(name string) string {
	var sb strings.Builder
	sb.WriteString("nwcache_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// WriteMetricsText writes frames in Prometheus text exposition format:
// one sample per metric per frame, with # TYPE headers emitted once per
// metric name across all frames. label returns the label set (including
// braces, e.g. `{job="j1",cell="gauss"}`, or "") for frame i — the
// seam that lets the service layer attach job/cell labels while the
// single-run live server keeps its run label.
func WriteMetricsText(w io.Writer, frames []*LiveSample, label func(i int, f *LiveSample) string) error {
	bw := bufio.NewWriter(w)
	typed := map[string]bool{}
	for fi, f := range frames {
		l := label(fi, f)
		for i, name := range f.Names {
			pn := promName(name)
			if !typed[pn] {
				typed[pn] = true
				kind := "gauge"
				if f.Kinds[i] == "counter" {
					kind = "counter"
				}
				fmt.Fprintf(bw, "# TYPE %s %s\n", pn, kind)
			}
			fmt.Fprintf(bw, "%s%s %g\n", pn, l, f.Values[i])
		}
		fmt.Fprintf(bw, "%s%s %d\n", "nwcache_sim_now_published_pcycles", l, f.Now)
	}
	return bw.Flush()
}

func (s *LiveServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteMetricsText(w, s.set.Frames(), func(_ int, f *LiveSample) string {
		if f.Run == "" {
			return ""
		}
		return fmt.Sprintf("{run=%q}", f.Run)
	})
}

// seriesFrame is one NDJSON line of the /series stream.
type seriesFrame struct {
	Run     string             `json:"run,omitempty"`
	Now     int64              `json:"now"`
	Seq     int64              `json:"seq"`
	Metrics map[string]float64 `json:"metrics"`
}

func (s *LiveServer) handleSeries(w http.ResponseWriter, r *http.Request) {
	ServeSeries(w, r, s.set, nil)
}

// ServeSeries streams set's newly published frames as NDJSON (one
// seriesFrame per line, deduplicated per run by Seq) until the client
// disconnects or done closes — done is the hook a finite job hands in
// so the stream terminates with the job (nil: stream forever). After
// done closes one final sweep drains any frames published in between.
func ServeSeries(w http.ResponseWriter, r *http.Request, set *LiveSet, done <-chan struct{}) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	last := map[string]int64{} // run -> last streamed Seq
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	closing := false
	for {
		for _, f := range set.Frames() {
			if f.Seq <= last[f.Run] {
				continue
			}
			last[f.Run] = f.Seq
			m := make(map[string]float64, len(f.Names))
			for i, name := range f.Names {
				m[name] = f.Values[i]
			}
			if err := enc.Encode(seriesFrame{Run: f.Run, Now: f.Now, Seq: f.Seq, Metrics: m}); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if closing {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-done:
			closing = true // one last drain, then out
		case <-ticker.C:
		}
	}
}
