// Package serve turns the sweep fabric into a long-running service:
// jobs (a grid spec, or a single cell) arrive over HTTP, run on a
// bounded scheduler with the same checkpoint/resume, cache, and
// supervision machinery the offline CLI uses, and expose their progress
// while running — lifecycle events, live metric frames, host resource
// probes — plus their merged artifacts when done. A job's artifacts are
// byte-identical to the same spec run offline with nwsweep: the service
// adds observers, never different execution.
package serve

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"nwcache/internal/exp/pool"
	"nwcache/internal/guard"
	"nwcache/internal/obs"
	"nwcache/internal/report"
	"nwcache/internal/sweep"
)

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StatePoisoned  = "poisoned"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Config parameterizes a Server.
type Config struct {
	// Dir is the service data root: Dir/jobs/<id>/ holds each job's
	// artifacts, Dir/cache is the content-addressed result cache every
	// job shares (a duplicate job adopts cached cells instead of
	// re-simulating).
	Dir string
	// Jobs bounds how many jobs execute concurrently (default 1).
	Jobs int
	// Workers is the per-job pool size (default 0: GOMAXPROCS).
	Workers int
	// QueueLen bounds the backlog of queued jobs; submissions beyond it
	// are rejected with 503 (default 256).
	QueueLen int
	// Guard supervises each cell (zero value: unsupervised).
	Guard guard.CellGuard
	// HostSample is the wall-clock period of the per-job host resource
	// sampler — heap, GC, goroutines, pool stats (default 250ms;
	// negative disables it).
	HostSample time.Duration
	// MaxEvents bounds each job's in-memory event log (default
	// obs.DefaultEventLogBound).
	MaxEvents int
	// Logf, if set, receives one line per job state change.
	Logf func(format string, args ...any)
}

// Job is one scheduled simulation run.
type Job struct {
	ID   string
	Name string
	Spec *sweep.Spec
	Dir  string

	events *obs.EventLog
	live   *obs.LiveSet

	mu      sync.Mutex
	state   string
	errText string
	done    int
	total   int
	etaNS   int64

	draining  atomic.Bool // graceful-drain request (cancel, shutdown)
	finish    chan struct{}
	submitted time.Time
}

// JobStatus is the wire form of a job's state.
type JobStatus struct {
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`
	State  string `json:"state"`
	Spec   string `json:"spec"`
	Cells  int    `json:"cells"`
	Done   int    `json:"done"`
	Total  int    `json:"total"`
	EtaNS  int64  `json:"eta_ns,omitempty"`
	Error  string `json:"error,omitempty"`
	AgeSec int64  `json:"age_sec"`
}

func (j *Job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.ID, Name: j.Name, State: j.state,
		Spec: j.Spec.Digest(), Cells: j.Spec.NumCells(),
		Done: j.done, Total: j.total, EtaNS: j.etaNS,
		Error:  j.errText,
		AgeSec: int64(time.Since(j.submitted).Seconds()),
	}
}

// record stamps the job ID onto a runner event, folds its progress into
// the job status, and appends it to the job's event log.
func (j *Job) record(ev obs.Event) {
	ev.Job = j.ID
	if ev.Total > 0 {
		j.mu.Lock()
		j.done, j.total, j.etaNS = ev.Done, ev.Total, ev.EtaNS
		j.mu.Unlock()
	}
	j.events.Append(ev)
}

// setState transitions the job when its current state is one of from,
// reporting whether the transition happened.
func (j *Job) setState(to string, from ...string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, f := range from {
		if j.state == f {
			j.state = to
			return true
		}
	}
	return false
}

// Server schedules jobs and serves their telemetry and artifacts.
type Server struct {
	cfg   Config
	queue chan *Job

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string
	seq   int

	draining atomic.Bool
	qmu      sync.Mutex // serializes queue sends against Drain's close
	workers  sync.WaitGroup
}

// NewServer creates the data directory and starts cfg.Jobs scheduler
// workers.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: Config.Dir is required")
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 1
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 256
	}
	if cfg.HostSample == 0 {
		cfg.HostSample = 250 * time.Millisecond
	}
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = obs.DefaultEventLogBound
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "jobs"), 0o755); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, queue: make(chan *Job, cfg.QueueLen), jobs: map[string]*Job{}}
	for i := 0; i < cfg.Jobs; i++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for j := range s.queue {
				if s.draining.Load() {
					if j.setState(StateCancelled, StateQueued) {
						s.finalizeCancelled(j, "server draining")
					}
					continue
				}
				if j.setState(StateRunning, StateQueued) {
					s.run(j)
				}
			}
		}()
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Submit registers a job for the parsed spec and enqueues it. specText
// is persisted verbatim as the job's spec.txt.
func (s *Server) Submit(spec *sweep.Spec, specText string, name string) (*Job, error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("j%04d-%.8s", s.seq, spec.Digest())
	s.mu.Unlock()
	j := &Job{
		ID: id, Name: name, Spec: spec,
		Dir:    filepath.Join(s.cfg.Dir, "jobs", id),
		events: obs.NewEventLog(s.cfg.MaxEvents),
		live:   &obs.LiveSet{},
		state:  StateQueued, finish: make(chan struct{}),
		submitted: time.Now(),
	}
	if err := os.MkdirAll(j.Dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(j.Dir, "spec.txt"), []byte(specText), 0o644); err != nil {
		return nil, err
	}
	j.record(obs.Event{Type: obs.EventJobQueued, Key: spec.Digest(), Total: spec.NumCells()})
	s.mu.Lock()
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.qmu.Lock()
	if s.draining.Load() {
		s.qmu.Unlock()
		s.finalizeCancelled(j, "server draining")
		return nil, errDraining
	}
	select {
	case s.queue <- j:
		s.qmu.Unlock()
	default:
		s.qmu.Unlock()
		s.finalize(j, StateCancelled, obs.EventJobCancelled, "queue full")
		return nil, errQueueFull
	}
	s.logf("serve: job %s queued (%d cells, spec %.12s…)", id, spec.NumCells(), spec.Digest())
	return j, nil
}

var (
	errDraining  = errors.New("serve: draining, not accepting jobs")
	errQueueFull = errors.New("serve: job queue full")
)

// job looks a job up by ID.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job's status in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, len(ids))
	for i, id := range ids {
		jobs[i] = s.jobs[id]
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// Cancel requests a job stop: a queued job is cancelled outright, a
// running job drains gracefully (in-flight cells finish and checkpoint,
// so a resubmission of the same spec resumes from the cache).
func (s *Server) Cancel(id string) error {
	j, ok := s.job(id)
	if !ok {
		return fmt.Errorf("serve: no such job %s", id)
	}
	j.draining.Store(true)
	if j.setState(StateCancelled, StateQueued) {
		// Still in the queue: the worker will skip it when it surfaces.
		s.finalizeCancelled(j, "cancelled while queued")
		return nil
	}
	return nil // running (drains), or already terminal
}

// run executes one claimed job end to end.
func (s *Server) run(j *Job) {
	s.logf("serve: job %s running", j.ID)
	j.record(obs.Event{Type: obs.EventJobStart, Key: j.Spec.Digest(), Total: j.Spec.NumCells()})

	p := pool.New(s.cfg.Workers)
	stopHost := s.startHostSampler(j, p)

	r := &sweep.Runner{
		Spec: j.Spec, Shard: 0, Shards: 1,
		Dir:      j.Dir,
		Pool:     p,
		CacheDir: filepath.Join(s.cfg.Dir, "cache"),
		Guard:    s.cfg.Guard,
		Live:     j.live,
		Draining: j.draining.Load,
		OnEvent:  j.record,
	}
	sum, err := r.Run()
	stopHost()
	switch {
	case err == nil:
		if mergeErr := s.mergeAndRender(j); mergeErr != nil {
			s.finalize(j, StateFailed, obs.EventJobFailed, mergeErr.Error())
			return
		}
		s.finalize(j, StateDone, obs.EventJobDone, "")
	case errors.Is(err, sweep.ErrIncomplete):
		// Only a drain stops an unbounded run early.
		s.finalize(j, StateCancelled, obs.EventJobCancelled, "drained")
	case errors.Is(err, sweep.ErrPoisoned):
		s.finalize(j, StatePoisoned, obs.EventJobPoisoned, fmt.Sprintf("%d cell(s) quarantined", sum.Poisoned))
	default:
		s.finalize(j, StateFailed, obs.EventJobFailed, err.Error())
	}
}

// startHostSampler wires the job's host-resource and pool probes into a
// wall-clock sampler published into the job's live set (run "host").
// These are service telemetry only — they live outside every cell
// registry and never touch artifacts. Returns the stop function.
func (s *Server) startHostSampler(j *Job, p *pool.Pool) func() {
	if s.cfg.HostSample < 0 {
		return func() {}
	}
	reg := obs.NewRegistry()
	obs.RegisterHostProbes(reg.Root().Scope("host"))
	p.Observe(reg.Root().Scope("pool"))
	smp, view := obs.NewLiveSampler(reg, 1, "host")
	j.live.Add(view)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(s.cfg.HostSample)
		defer t.Stop()
		for i := int64(1); ; i++ {
			smp.Tick(i)
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return func() { close(stop); wg.Wait() }
}

// mergeAndRender produces the job's merged artifacts and HTML index.
func (s *Server) mergeAndRender(j *Job) error {
	mergeOut, err := os.Create(filepath.Join(j.Dir, "merge.txt"))
	if err != nil {
		return err
	}
	_, err = sweep.Merge(j.Spec, j.Dir, 1, mergeOut)
	if cerr := mergeOut.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return renderIndex(j)
}

// renderIndex writes the job's self-contained HTML artifact index.
func renderIndex(j *Job) error {
	_, manPath, serPath := sweep.MergedPaths(j.Dir)
	mf, err := os.Open(manPath)
	if err != nil {
		return err
	}
	man, err := obs.ReadManifest(mf)
	mf.Close()
	if err != nil {
		return err
	}
	var series []obs.SeriesData
	if sf, err := os.Open(serPath); err == nil {
		series, err = obs.ReadSeriesNDJSON(sf)
		sf.Close()
		if err != nil {
			return err
		}
	}
	f, err := os.Create(filepath.Join(j.Dir, "index.html"))
	if err != nil {
		return err
	}
	w := &report.ErrWriter{W: f}
	title := "nwcache job " + j.ID
	if j.Name != "" {
		title += " — " + j.Name
	}
	report.Header(w, title)
	report.ManifestTable(w, []*obs.Manifest{man}, []string{"merged.manifest.json"})
	if len(series) > 0 {
		report.SeriesSection(w, series)
	}
	fmt.Fprintln(w, "<h2>Artifacts</h2><ul>")
	for _, name := range artifactNames(j.Dir) {
		fmt.Fprintf(w, "<li><a href=%q><code>%s</code></a></li>\n", name, name)
	}
	fmt.Fprintln(w, "</ul>")
	report.Footer(w)
	if w.Err != nil {
		f.Close()
		return w.Err
	}
	return f.Close()
}

// artifactNames lists the job directory's regular files, sorted.
func artifactNames(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range ents {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	return names
}

// finalizeCancelled finalizes a job cancelled before it ran.
func (s *Server) finalizeCancelled(j *Job, reason string) {
	s.finalize(j, StateCancelled, obs.EventJobCancelled, reason)
}

// finalize moves the job to a terminal state, emits the terminal event,
// persists the event log to events.ndjson, and releases waiters.
func (s *Server) finalize(j *Job, state, evType, reason string) {
	j.mu.Lock()
	j.state = state
	if state == StateFailed {
		j.errText = reason
	}
	done, total := j.done, j.total
	j.mu.Unlock()
	j.events.Append(obs.Event{Job: j.ID, Type: evType, Key: j.Spec.Digest(),
		Reason: reason, Done: done, Total: total})
	if evs, _ := j.events.Since(0); len(evs) > 0 {
		if f, err := os.Create(filepath.Join(j.Dir, "events.ndjson")); err == nil {
			bw := bufio.NewWriter(f)
			obs.WriteEventsNDJSON(bw, evs) //nolint:errcheck // advisory artifact
			bw.Flush()
			f.Close()
		}
	}
	j.events.Close()
	close(j.finish)
	s.logf("serve: job %s %s %s", j.ID, state, reason)
}

// Drain stops accepting jobs, cancels the queue, gracefully drains
// running jobs (in-flight cells finish and checkpoint), and waits for
// every job to reach a terminal state. Safe to call once.
func (s *Server) Drain() {
	if !s.draining.CompareAndSwap(false, true) {
		return
	}
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.draining.Store(true)
		if j.setState(StateCancelled, StateQueued) {
			s.finalizeCancelled(j, "server draining")
		}
	}
	for _, j := range jobs {
		<-j.finish
	}
	s.qmu.Lock()
	close(s.queue)
	s.qmu.Unlock()
	s.workers.Wait()
}
