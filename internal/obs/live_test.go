package obs

import (
	"bufio"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestPublishFrames(t *testing.T) {
	reg, c, g, _ := sampleReg()
	s := NewSampler(reg, 10, 0)
	view := s.Publish("run-a")
	if view.Load() != nil {
		t.Fatal("frame before first tick")
	}
	c.Inc()
	g.Set(10, 7)
	s.Tick(10)
	f := view.Load()
	if f == nil {
		t.Fatal("no frame after tick")
	}
	if f.Run != "run-a" || f.Now != 10 || f.Seq != 1 {
		t.Fatalf("frame %+v", f)
	}
	if v, ok := f.Get("a.level"); !ok || v != 7 {
		t.Fatalf("a.level = %v,%v", v, ok)
	}
	if _, ok := f.Get("no.such"); ok {
		t.Fatal("Get on unknown name succeeded")
	}
	g.Set(20, 9)
	s.Tick(20)
	f2 := view.Load()
	if f2.Seq != 2 || f2.Now != 20 {
		t.Fatalf("second frame %+v", f2)
	}
	if v, _ := f2.Get("a.level"); v != 9 {
		t.Fatalf("stale value %v in new frame", v)
	}
	// The first frame must be immutable — readers may still hold it.
	if v, _ := f.Get("a.level"); v != 7 {
		t.Fatalf("published frame mutated: a.level=%v", v)
	}
}

func TestLiveSetFrames(t *testing.T) {
	var ls *LiveSet
	ls.Add(nil) // nil-safe
	if ls.Frames() != nil {
		t.Fatal("nil set frames")
	}
	ls = &LiveSet{}
	reg1, c1, _, _ := sampleReg()
	s1 := NewSampler(reg1, 10, 0)
	ls.Add(s1.Publish("one"))
	reg2, _, _, _ := sampleReg()
	s2 := NewSampler(reg2, 10, 0)
	ls.Add(s2.Publish("two"))
	c1.Inc()
	s1.Tick(10)
	frames := ls.Frames()
	if len(frames) != 1 || frames[0].Run != "one" {
		t.Fatalf("frames %v (unpublished views must be skipped)", frames)
	}
	s2.Tick(10)
	if frames = ls.Frames(); len(frames) != 2 {
		t.Fatalf("want 2 frames, got %d", len(frames))
	}
}

// startTestServer spins up a live server on a random port with one
// published frame and returns it with its base URL.
func startTestServer(t *testing.T) (*LiveServer, string, *Sampler) {
	t.Helper()
	reg, c, g, h := sampleReg()
	s := NewSampler(reg, 10, 0)
	set := &LiveSet{}
	set.Add(s.Publish("em3d/nwcache/optimal"))
	c.Add(3)
	g.Set(10, 5)
	h.Observe(100)
	s.Tick(10)
	srv, err := StartLiveServer("127.0.0.1:0", set)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, "http://" + srv.Addr(), s
}

func TestLiveServerMetrics(t *testing.T) {
	_, base, _ := startTestServer(t)
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, w := range []string{
		"# TYPE nwcache_a_events counter",
		`nwcache_a_events{run="em3d/nwcache/optimal"} 3`,
		"# TYPE nwcache_a_level gauge",
		`nwcache_a_level{run="em3d/nwcache/optimal"} 5`,
		`nwcache_b_lat_count{run="em3d/nwcache/optimal"} 1`,
		`nwcache_sim_now_published_pcycles{run="em3d/nwcache/optimal"} 10`,
	} {
		if !strings.Contains(text, w) {
			t.Fatalf("/metrics missing %q:\n%s", w, text)
		}
	}
}

func TestLiveServerSeriesStream(t *testing.T) {
	srv, base, s := startTestServer(t)
	_ = srv
	resp, err := http.Get(base + "/series")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, `"seq":1`) || !strings.Contains(line, `"a.events":3`) {
		t.Fatalf("first stream line %q", line)
	}
	// A second tick must eventually stream a second frame.
	s.Tick(20)
	done := make(chan string, 1)
	go func() {
		l, _ := br.ReadString('\n')
		done <- l
	}()
	select {
	case l := <-done:
		if !strings.Contains(l, `"seq":2`) || !strings.Contains(l, `"now":20`) {
			t.Fatalf("second stream line %q", l)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second frame never streamed")
	}
}

func TestLiveServerIndex(t *testing.T) {
	_, base, _ := startTestServer(t)
	resp, err := http.Get(base + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "em3d/nwcache/optimal") {
		t.Fatalf("index missing run label:\n%s", body)
	}
	if resp, err = http.Get(base + "/nope"); err == nil {
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown path status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestPromName(t *testing.T) {
	if got := promName("ring.chan1.occupancy"); got != "nwcache_ring_chan1_occupancy" {
		t.Fatalf("promName %q", got)
	}
}

func TestWatcherRenders(t *testing.T) {
	reg, c, _, _ := sampleReg()
	s := NewSampler(reg, 10, 0)
	set := &LiveSet{}
	set.Add(s.Publish("lu/standard/naive"))
	c.Add(2)
	s.Tick(10)
	var sb strings.Builder
	w := &Watcher{Set: set, Out: &sb, Every: time.Millisecond}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(stop)
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	<-done
	out := sb.String()
	if !strings.Contains(out, "lu/standard/naive") {
		t.Fatalf("watch output missing run label:\n%q", out)
	}
	if !strings.Contains(out, "a.events") {
		t.Fatalf("watch output missing metric name:\n%q", out)
	}
}

func TestWatcherRestoresTerminal(t *testing.T) {
	reg, _, _, _ := sampleReg()
	s := NewSampler(reg, 10, 0)
	set := &LiveSet{}
	set.Add(s.Publish("lu/standard/naive"))
	var sb strings.Builder
	w := &Watcher{Set: set, Out: &sb, Every: time.Millisecond}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(stop)
	}()
	time.Sleep(5 * time.Millisecond)
	close(stop)
	<-done
	out := sb.String()
	if !strings.Contains(out, ansiCursorHide) {
		t.Fatalf("dashboard never hid the cursor:\n%q", out)
	}
	if !strings.HasSuffix(out, ansiReset+ansiCursorShow+"\n") {
		t.Fatalf("dashboard exit did not restore the terminal:\n%q", out[len(out)-40:])
	}
	// Restore is idempotent: a racing signal handler calling it again
	// must not emit a second restore sequence.
	before := sb.Len()
	w.Restore()
	if sb.Len() != before {
		t.Fatal("second Restore emitted bytes")
	}
}

func TestWatcherRenderSuppressedAfterRestore(t *testing.T) {
	reg, _, _, _ := sampleReg()
	s := NewSampler(reg, 10, 0)
	set := &LiveSet{}
	set.Add(s.Publish("lu"))
	var sb strings.Builder
	w := &Watcher{Set: set, Out: &sb, Every: time.Millisecond, Rows: 4, Width: 8}
	w.hist = map[string][]float64{}
	w.Restore() // signal handler handed the terminal back first
	before := sb.Len()
	w.render(false)
	if sb.Len() != before {
		t.Fatal("render repainted after the terminal was restored")
	}
}
