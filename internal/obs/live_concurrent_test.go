package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// wideCols is how many extra gauges a wide test frame carries, so a
// frame is far longer than one cache line and a torn copy is likely to
// show if the seqlock were wrong.
const wideCols = 64

// wideReg is sampleReg plus wideCols gauges w.g00.. and a setter that
// puts every counter and gauge of the registry at tick i.
func wideReg() (*Registry, func(i int64)) {
	reg, c, g, _ := sampleReg()
	ws := make([]*Gauge, wideCols)
	for k := range ws {
		ws[k] = reg.Root().Scope("w").Gauge(fmt.Sprintf("g%02d", k))
	}
	return reg, func(i int64) {
		c.Inc()
		g.Set(i)
		for _, w := range ws {
			w.Set(i)
		}
	}
}

// tornCol returns the name of a column that is not v (a.events, a.level
// and every w.* gauge must all equal the tick number), or "".
func tornCol(names []string, vals []float64, v float64) string {
	for i, name := range names {
		if (name == "a.events" || name == "a.level" || strings.HasPrefix(name, "w.")) && vals[i] != v {
			return name
		}
	}
	return ""
}

// TestLiveViewLoadNeverTorn races readers calling Load directly against
// a producer ticking as fast as it can: every loaded frame must carry
// one tick throughout (all wide columns equal to Seq, Now = 10·Seq),
// and each reader's Seq must never fall and must rise whenever the
// frame changes. Run under -race it also proves the seqlock race-free.
func TestLiveViewLoadNeverTorn(t *testing.T) {
	reg, setTick := wideReg()
	s := NewSampler(reg, 10, 0)
	view := s.Publish("wide")
	const ticks = 3000
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int64
			for !done.Load() {
				f := view.Load()
				if f == nil {
					continue
				}
				if col := tornCol(f.Names, f.Values, float64(f.Seq)); col != "" || f.Now != 10*f.Seq {
					t.Errorf("torn frame: seq %d now %d column %q", f.Seq, f.Now, col)
					return
				}
				if f.Seq < last {
					t.Errorf("seq fell %d -> %d", last, f.Seq)
					return
				}
				last = f.Seq
			}
		}()
	}
	for i := int64(1); i <= ticks; i++ {
		setTick(i)
		s.Tick(10 * i)
	}
	done.Store(true)
	wg.Wait()
	if f := view.Load(); f.Seq != ticks {
		t.Fatalf("final seq %d, want %d", f.Seq, ticks)
	}
}

// TestLiveServerConcurrentReaders hammers /metrics and the /series
// long-poll from several goroutines while a producer publishes frames
// as fast as it can, asserting no reader ever observes a torn frame.
// At tick i the producer sets a.events, a.level and all wideCols w.*
// gauges to i, so any frame mixing values from two ticks is detectable;
// /series must additionally stream strictly increasing sequence numbers,
// each equal to its frame's tick. Run under -race this doubles as the
// data-race proof for the LiveView hand-off.
func TestLiveServerConcurrentReaders(t *testing.T) {
	reg, setTick := wideReg()
	s := NewSampler(reg, 10, 0)
	set := &LiveSet{}
	set.Add(s.Publish("em3d/nwcache/naive seed=1"))
	srv, err := StartLiveServer("127.0.0.1:0", set)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	const ticks = 400
	producerDone := make(chan struct{})
	go func() {
		defer close(producerDone)
		for i := 1; i <= ticks; i++ {
			setTick(int64(i))
			s.Tick(int64(i) * 10)
			if i%50 == 0 {
				time.Sleep(time.Millisecond) // let readers land mid-run
			}
		}
	}()

	const readers = 4
	var wg sync.WaitGroup
	errc := make(chan error, 2*readers)

	// /metrics pollers: every scrape must carry one value for the
	// counter and every gauge.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-producerDone:
					return
				default:
				}
				resp, err := http.Get(base + "/metrics")
				if err != nil {
					errc <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				var vals []float64
				for _, line := range strings.Split(string(body), "\n") {
					if strings.HasPrefix(line, "nwcache_a_events{") ||
						strings.HasPrefix(line, "nwcache_a_level{") ||
						strings.HasPrefix(line, "nwcache_w_") {
						if v, ok := promValue(line); ok {
							vals = append(vals, v)
						}
					}
				}
				if len(vals) == 0 {
					continue // nothing published yet
				}
				if len(vals) != 2+wideCols {
					t.Errorf("/metrics scrape has %d of %d columns", len(vals), 2+wideCols)
					return
				}
				for _, v := range vals {
					if v != vals[0] {
						t.Errorf("torn /metrics frame: %v", vals)
						return
					}
				}
			}
		}()
	}

	// /series long-poll readers: frames arrive internally consistent
	// with strictly increasing Seq.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				<-producerDone
				time.Sleep(150 * time.Millisecond) // let the tail drain
				cancel()
			}()
			req, _ := http.NewRequestWithContext(ctx, "GET", base+"/series", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errc <- err
				return
			}
			defer resp.Body.Close()
			br := bufio.NewReader(resp.Body)
			lastSeq := int64(0)
			for {
				line, err := br.ReadBytes('\n')
				if err != nil {
					return // stream ended (context cancel)
				}
				var f struct {
					Seq     int64              `json:"seq"`
					Metrics map[string]float64 `json:"metrics"`
				}
				if err := json.Unmarshal(line, &f); err != nil {
					t.Errorf("bad /series line %q: %v", line, err)
					return
				}
				if f.Seq <= lastSeq {
					t.Errorf("/series seq went %d -> %d (not strictly increasing)", lastSeq, f.Seq)
					return
				}
				lastSeq = f.Seq
				names := make([]string, 0, len(f.Metrics))
				vals := make([]float64, 0, len(f.Metrics))
				for name, v := range f.Metrics {
					names = append(names, name)
					vals = append(vals, v)
				}
				if col := tornCol(names, vals, float64(f.Seq)); col != "" || len(f.Metrics) < 2+wideCols {
					t.Errorf("torn /series frame (seq %d, column %q): %v", f.Seq, col, f.Metrics)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// promValue parses the value off a `...} V` exposition tail.
func promValue(tail string) (float64, bool) {
	i := strings.LastIndexByte(tail, ' ')
	if i < 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(tail[i+1:], 64)
	return v, err == nil
}

func TestRegisterHostProbes(t *testing.T) {
	reg := NewRegistry()
	RegisterHostProbes(reg.Root().Scope("host"))
	sink := make([]byte, 1<<16) // ensure a live heap to report
	snap := reg.Snapshot()
	if v, ok := snap.Get("host.heap_alloc_bytes"); !ok || v.Value <= 0 {
		t.Fatalf("host.heap_alloc_bytes = %+v, want > 0", v)
	}
	if v, ok := snap.Get("host.goroutines"); !ok || v.Value < 1 {
		t.Fatalf("host.goroutines = %+v, want >= 1", v)
	}
	for _, name := range []string{"host.heap_objects", "host.gc_cycles", "host.gc_pause_total_ns"} {
		if _, ok := snap.Get(name); !ok {
			t.Fatalf("snapshot missing %s", name)
		}
	}
	_ = sink
	// Probes feed samplers like any other metric.
	s := NewSampler(reg, 1, 0)
	s.Tick(1)
	if s.Len() != 1 {
		t.Fatalf("sampler recorded %d points, want 1", s.Len())
	}
	RegisterHostProbes(nil) // nil-safe
}
