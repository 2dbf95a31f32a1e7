package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"nwcache/internal/core"
	"nwcache/internal/exp"
	"nwcache/internal/exp/pool"
	"nwcache/internal/machine"
	"nwcache/internal/obs"
	"nwcache/internal/serve"
	"nwcache/internal/sweep"
)

// workload is one traffic mix: a grid of evaluation cells and the public
// entry point one rep drives them through.
type workload struct {
	name  string
	why   string
	grid  string  // spec directives choosing apps, kinds and modes
	seeds int     // consecutive seeds per rep, starting at the run's seed
	scale float64 // workload scale
	// golden: the rep's output at seed 1 and scale 1.0 must match
	// testdata/golden.digest.
	golden bool
	// pooled: a rep runs its cells on a pool of bench.workers workers,
	// so the reference kernel runs that many lanes (see reference).
	pooled bool
	// prepare builds what the first rep starts from. It runs in a set-up
	// child, timed with the child's start (see measureSetup).
	prepare func(*bench) (release func(), err error)
	rep     func(b *bench, traced bool) (repOut, error)
}

// The workloads, chosen so each stresses a different layer: see
// README.md for the measured reasons.
var workloads = []*workload{
	{
		name:    "swap-gauss",
		why:     "gauss on both machines under optimal prefetch: the VM-fault, swap, disk and optical-ring path does the work",
		grid:    "apps gauss\nkinds standard,nwcache\nmodes optimal\n",
		seeds:   1,
		scale:   1.0,
		prepare: prepareCells,
		rep:     simRep,
	},
	{
		name:    "comm-fft-radix",
		why:     "fft and radix on both machines: remote accesses, mesh and coherence do the work; ring, disk and swap stay nearly idle",
		grid:    "apps fft,radix\nkinds standard,nwcache\nmodes optimal\n",
		seeds:   1,
		scale:   1.0,
		prepare: prepareCells,
		rep:     simRep,
	},
	{
		name:    "paper-eval",
		why:     "the full 28-cell paper evaluation through exp.Suite on a worker pool: concurrent cells, naive prefetch, all seven apps, table rendering",
		grid:    "kinds standard,nwcache\nmodes naive,optimal\n",
		seeds:   1,
		scale:   1.0,
		golden:  true,
		pooled:  true,
		prepare: prepareCells,
		rep:     paperRep,
	},
	{
		name:    "service-grid",
		why:     "an 84-cell job on a fresh nwserve over HTTP, submitted cold then warm: sweep cache, STATE, merge and serve do the work",
		grid:    "kinds standard,nwcache\nmodes naive,optimal\n",
		seeds:   3,
		scale:   0.05,
		pooled:  true,
		prepare: prepareService,
		rep:     serviceRep,
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// bench is a workload instantiated for one seed and scale.
type bench struct {
	w        *workload
	seed     int64
	scale    float64
	specText string
	spec     *sweep.Spec
	cells    []core.Cell
	workers  int    // pool size for the concurrent workloads
	golden   string // expected digest of the paper tables; "" skips the check
	tmp      string // parent directory for service data
}

// newBench instantiates w. scale <= 0 keeps the workload's own scale;
// a non-empty golden replaces the expected digest of the paper tables.
func newBench(w *workload, seed int64, scale float64, golden string) (*bench, error) {
	if scale <= 0 {
		scale = w.scale
	}
	if golden == "" && w.golden && seed == 1 && scale == 1.0 {
		path, err := repoFile("testdata/golden.digest")
		if err != nil {
			return nil, err
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		golden = strings.TrimSpace(string(blob))
	}
	text := fmt.Sprintf("name %s\n%sseeds %d..%d\nscale %g\n", w.name, w.grid, seed, seed+int64(w.seeds)-1, scale)
	spec, err := sweep.ParseSpec(text)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, seed: seed, scale: scale, specText: text, spec: spec,
		workers: min(runtime.NumCPU(), 4), golden: golden, tmp: os.TempDir()}
	err = spec.EachCell(func(_ int, c core.Cell) error {
		b.cells = append(b.cells, c)
		return nil
	})
	return b, err
}

// repOut is what one rep produced.
type repOut struct {
	wall    time.Duration
	allocMB float64        // heap allocated during the timed span
	records []sweep.Record // every cell's result, in grid order
	// output is the digest of the rep's user-visible output (rendered
	// tables, served artifact); "" when the rep renders none.
	output      string
	renderShare float64            // share of the rep spent rendering tables
	counts      map[string]float64 // harness-side work counts
	// walls holds wall times of the rep's calls into the sweep and serve
	// layers, keyed by call (see wallCalls); traced service reps only.
	walls    map[string]time.Duration
	problems []string // failed checks
}

// meter measures a rep's timed span: wall time and heap allocation.
type meter struct {
	start time.Time
	alloc uint64
}

func startMeter() meter {
	alloc := allocatedBytes()
	return meter{time.Now(), alloc}
}

func (m meter) stop(out *repOut) {
	out.wall = time.Since(m.start)
	out.allocMB = float64(allocatedBytes()-m.alloc) / (1 << 20)
}

// allocatedBytes is the heap allocated so far. runtime/metrics counts
// a cached span's allocations only once the span leaves its P's cache,
// which makes a rep's count drift by up to a span per size class per P;
// ReadMemStats flushes those caches first.
func allocatedBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// buildCells constructs every cell's program and machine.
func buildCells(cells []core.Cell) ([]core.Program, []*machine.Machine, error) {
	progs := make([]core.Program, len(cells))
	machines := make([]*machine.Machine, len(cells))
	for i, c := range cells {
		var err error
		if progs[i], err = core.NewProgram(c.App, c.Cfg); err != nil {
			return nil, machines, err
		}
		if machines[i], err = core.NewMachine(c.Cfg, c.Kind, c.Mode); err != nil {
			return nil, machines, err
		}
	}
	return progs, machines, nil
}

// discard tears down machines that never ran: construction already
// spawned their daemon processes, which stay parked (with the machine
// reachable) until the engine kills them.
func discard(machines []*machine.Machine) {
	for _, m := range machines {
		if m != nil {
			m.E.KillParked()
		}
	}
}

func prepareCells(b *bench) (func(), error) {
	_, machines, err := buildCells(b.cells)
	return func() { discard(machines) }, err
}

// simRep runs the cells serially, each on a fresh machine.
func simRep(b *bench, traced bool) (repOut, error) {
	var out repOut
	regs := make([]*obs.Registry, len(b.cells))
	results := make([]*core.Result, len(b.cells))
	m := startMeter()
	progs, machines, err := buildCells(b.cells)
	if err != nil {
		discard(machines)
		return out, err
	}
	for i, mach := range machines {
		if traced {
			regs[i] = obs.NewRegistry()
			mach.Observe(regs[i], nil)
		}
		if results[i], err = mach.Run(progs[i]); err != nil {
			discard(machines[i+1:])
			return out, fmt.Errorf("%s: %w", b.cells[i].Label(), err)
		}
	}
	m.stop(&out)
	for i, c := range b.cells {
		out.records = append(out.records, sweep.NewRecord(c, results[i], regs[i].Snapshot(), nil))
	}
	return out, nil
}

// paperRep regenerates every table and figure of the paper, as
// `nwbench -all` does, and digests the rendered text.
func paperRep(b *bench, traced bool) (repOut, error) {
	var out repOut
	cfg := b.spec.BaseConfig()
	cfg.Seed = b.seed
	p := pool.New(b.workers)
	suite := exp.NewSuiteOn(cfg, p)
	var mu sync.Mutex
	regs := map[string]*obs.Registry{}
	if traced {
		suite.AddObserver(func(c core.Cell, m *machine.Machine) {
			reg := obs.NewRegistry()
			m.Observe(reg, nil)
			mu.Lock()
			regs[c.Key()] = reg
			mu.Unlock()
		})
	}
	m := startMeter()
	if err := suite.Prewarm(b.workers); err != nil {
		return out, err
	}
	prewarmed := time.Since(m.start)
	h := sha256.New()
	if err := suite.WriteAll(h); err != nil {
		return out, err
	}
	m.stop(&out)
	out.output = "sha256:" + hex.EncodeToString(h.Sum(nil))
	if b.golden != "" && out.output != b.golden {
		out.problems = append(out.problems, fmt.Sprintf("paper tables digest %s, want %s", out.output, b.golden))
	}
	out.renderShare = 1 - prewarmed.Seconds()/out.wall.Seconds()
	runs, hits := p.Stats()
	out.counts = map[string]float64{"pool.runs": float64(runs), "pool.hits": float64(hits)}
	for _, c := range b.cells {
		res, err := suite.Get(c.App, c.Kind, c.Mode)
		if err != nil {
			return out, err
		}
		var snap obs.Snapshot
		if traced {
			reg, ok := regs[c.Key()]
			if !ok {
				out.problems = append(out.problems, fmt.Sprintf("%s: the suite ran no cell with the grid's key", c.Label()))
			}
			snap = reg.Snapshot()
		}
		out.records = append(out.records, sweep.NewRecord(c, res, snap, nil))
	}
	return out, nil
}

// service is one nwserve instance behind an in-process HTTP listener,
// driven by a single client.
type service struct {
	srv    *serve.Server
	http   *httptest.Server
	client *http.Client
	dir    string
}

// startService starts a server on a fresh data directory under root.
func startService(root string, workers int) (*service, error) {
	dir, err := os.MkdirTemp(root, "svc-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{Dir: dir, Workers: workers})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	hs := httptest.NewServer(srv.Handler())
	return &service{srv: srv, http: hs, client: hs.Client(), dir: dir}, nil
}

// close drains the server, stops the listener and deletes the data.
func (s *service) close() {
	s.srv.Drain()
	s.http.Close()
	os.RemoveAll(s.dir)
}

// call performs one request and decodes a JSON reply into v, or reads
// the body into *[]byte.
func (s *service) call(method, path string, body []byte, want int, v any) error {
	req, err := http.NewRequest(method, s.http.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(blob))
	}
	if raw, ok := v.(*[]byte); ok {
		*raw = blob
		return nil
	}
	return json.Unmarshal(blob, v)
}

// jobOut is one job's path through the API.
type jobOut struct {
	id                             string
	submit, status, artifact, wall time.Duration
	fresh, cached                  int // cells simulated, cells adopted from the cache
	merged                         []byte
}

// job submits a grid, follows its event stream to the end, confirms it
// is done and fetches its merged artifact.
func (s *service) job(specText string) (jobOut, error) {
	var j jobOut
	body, err := json.Marshal(serve.JobRequest{Grid: specText})
	if err != nil {
		return j, err
	}
	start := time.Now()
	var st serve.JobStatus
	if err := s.call(http.MethodPost, "/jobs", body, http.StatusAccepted, &st); err != nil {
		return j, err
	}
	j.id = st.ID
	j.submit = time.Since(start)
	var stream []byte
	if err := s.call(http.MethodGet, "/jobs/"+j.id+"/events", nil, http.StatusOK, &stream); err != nil {
		return j, err
	}
	evs, err := obs.ReadEventsNDJSON(bytes.NewReader(stream))
	if err != nil {
		return j, err
	}
	for _, ev := range evs {
		switch ev.Type {
		case obs.EventCellDone:
			j.fresh++
		case obs.EventCellCache:
			j.cached++
		}
	}
	if len(evs) == 0 || evs[len(evs)-1].Type != obs.EventJobDone {
		return j, fmt.Errorf("job %s: event stream did not end in %s", j.id, obs.EventJobDone)
	}
	t := time.Now()
	if err := s.call(http.MethodGet, "/jobs/"+j.id, nil, http.StatusOK, &st); err != nil {
		return j, err
	}
	j.status = time.Since(t)
	if st.State != serve.StateDone {
		return j, fmt.Errorf("job %s: state %s after %s", j.id, st.State, obs.EventJobDone)
	}
	t = time.Now()
	if err := s.call(http.MethodGet, "/jobs/"+j.id+"/artifacts/merged.ndjson", nil, http.StatusOK, &j.merged); err != nil {
		return j, err
	}
	j.artifact = time.Since(t)
	j.wall = time.Since(start)
	return j, nil
}

func prepareService(b *bench) (func(), error) {
	s, err := startService(b.tmp, b.workers)
	if err != nil {
		return nil, err
	}
	var health map[string]string
	if err := s.call(http.MethodGet, "/healthz", nil, http.StatusOK, &health); err != nil {
		s.close()
		return nil, err
	}
	return s.close, nil
}

// serviceRep submits the grid to a fresh server twice: the cold leg
// simulates every cell, the warm leg is served from the result cache.
// A traced rep also keeps the warm leg's request timings and, after the
// timed span, times the sweep layer's calls on the server's data.
func serviceRep(b *bench, traced bool) (repOut, error) {
	var out repOut
	s, err := startService(b.tmp, b.workers)
	if err != nil {
		return out, err
	}
	defer s.close()
	m := startMeter()
	cold, err := s.job(b.specText)
	if err != nil {
		return out, err
	}
	warm, err := s.job(b.specText)
	if err != nil {
		return out, err
	}
	m.stop(&out)
	out.counts = map[string]float64{
		"sweep.fresh":      float64(cold.fresh + warm.fresh),
		"sweep.from_cache": float64(cold.cached + warm.cached),
	}
	if !bytes.Equal(cold.merged, warm.merged) {
		out.problems = append(out.problems, "merged.ndjson differs between the cold and warm legs")
	}
	sum := sha256.Sum256(cold.merged)
	out.output = "sha256:" + hex.EncodeToString(sum[:])
	err = sweep.ReadLines(bytes.NewReader(cold.merged), func(l sweep.Line) error {
		if !l.Verify() {
			out.problems = append(out.problems, fmt.Sprintf("merged cell %d (%s) fails digest verification", l.Idx, l.Label))
		}
		out.records = append(out.records, l.Record)
		return nil
	})
	if err != nil || !traced {
		return out, err
	}
	out.walls, err = probeSweep(b, s, warm.id)
	if err != nil {
		return out, fmt.Errorf("sweep probe: %w", err)
	}
	out.walls["serve.submit"] = warm.submit
	out.walls["serve.status"] = warm.status
	out.walls["serve.artifact"] = warm.artifact
	out.walls["serve.job_warm"] = warm.wall
	return out, nil
}
