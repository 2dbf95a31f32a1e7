package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strings"

	"nwcache/internal/obs"
	"nwcache/internal/sweep"
)

// JobRequest is the POST /jobs body: exactly one of Grid (a full sweep
// spec, the same text nwsweep -grid reads) or Cell (a single-cell
// shorthand the server renders into a one-cell spec).
type JobRequest struct {
	Name string       `json:"name,omitempty"`
	Grid string       `json:"grid,omitempty"`
	Cell *CellRequest `json:"cell,omitempty"`
}

// CellRequest describes one simulation cell.
type CellRequest struct {
	App       string  `json:"app"`
	Kind      string  `json:"kind,omitempty"`  // default nwcache
	Mode      string  `json:"mode,omitempty"`  // default naive
	Seed      int64   `json:"seed,omitempty"`  // default 1
	Scale     float64 `json:"scale,omitempty"` // default 1.0
	Series    int64   `json:"series,omitempty"`
	FaultPlan string  `json:"fault_plan,omitempty"`
	FaultSeed int64   `json:"fault_seed,omitempty"`
	Recovery  string  `json:"recovery,omitempty"`
}

// specText renders the request as sweep spec directives, the canonical
// single source of truth for what runs: both the grid and cell forms go
// through sweep.ParseSpec, so a cell job is literally a 1-cell sweep.
func (req *JobRequest) specText() (string, error) {
	if req.Grid != "" && req.Cell != nil {
		return "", fmt.Errorf("request has both grid and cell; pick one")
	}
	if req.Grid != "" {
		return req.Grid, nil
	}
	c := req.Cell
	if c == nil {
		return "", fmt.Errorf("request needs a grid spec or a cell")
	}
	if c.App == "" {
		return "", fmt.Errorf("cell needs an app")
	}
	var b strings.Builder
	if req.Name != "" {
		fmt.Fprintf(&b, "name %s\n", req.Name)
	}
	fmt.Fprintf(&b, "apps %s\n", c.App)
	kind := c.Kind
	if kind == "" {
		kind = "nwcache"
	}
	fmt.Fprintf(&b, "kinds %s\n", kind)
	mode := c.Mode
	if mode == "" {
		mode = "naive"
	}
	fmt.Fprintf(&b, "modes %s\n", mode)
	seed := c.Seed
	if seed == 0 {
		seed = 1
	}
	fmt.Fprintf(&b, "seeds %d\n", seed)
	if c.Scale > 0 {
		fmt.Fprintf(&b, "scale %g\n", c.Scale)
	}
	if c.Series > 0 {
		fmt.Fprintf(&b, "series %d\n", c.Series)
	}
	if c.FaultPlan != "" || c.Recovery != "" {
		fv := sweep.FaultVariant{Plan: c.FaultPlan, Seed: c.FaultSeed, Recovery: c.Recovery}
		fmt.Fprintf(&b, "fault %s\n", faultLine(fv))
	}
	return b.String(), nil
}

// faultLine renders a fault variant as a spec directive body.
func faultLine(v sweep.FaultVariant) string {
	var parts []string
	if v.Recovery != "" {
		parts = append(parts, "recovery="+v.Recovery)
	}
	if v.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", v.Seed))
	}
	if v.Plan != "" {
		parts = append(parts, "plan="+strings.ReplaceAll(v.Plan, "\n", "; "))
	}
	return strings.Join(parts, " ")
}

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleIndex)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /jobs", s.handleJobList)
	mux.HandleFunc("POST /jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleJobCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /jobs/{id}/series", s.handleJobSeries)
	mux.HandleFunc("GET /jobs/{id}/artifacts", s.handleArtifactList)
	mux.HandleFunc("GET /jobs/{id}/artifacts/{name}", s.handleArtifact)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	jobs := s.Jobs()
	fmt.Fprintf(w, "nwserve — %d job(s)\n\n", len(jobs))
	for _, js := range jobs {
		fmt.Fprintf(w, "  %-16s %-10s %d/%d cells\n", js.ID, js.State, js.Done, js.Total)
	}
	fmt.Fprint(w, "\nendpoints: /jobs /jobs/{id} /jobs/{id}/events /jobs/{id}/series /jobs/{id}/artifacts /metrics /debug/pprof/\n")
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	state := "ok"
	if s.draining.Load() {
		state = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": state})
}

func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	body := io.LimitReader(r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	text, err := req.specText()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	spec, err := sweep.ParseSpec(text)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	name := req.Name
	if name == "" {
		name = spec.Name
	}
	j, err := s.Submit(spec, text, name)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// pathJob resolves the {id} path value, handling the 404.
func (s *Server) pathJob(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.job(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such job %s", id))
	}
	return j, ok
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.pathJob(w, r); ok {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.pathJob(w, r)
	if !ok {
		return
	}
	if err := s.Cancel(j.ID); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.pathJob(w, r); ok {
		obs.ServeEvents(w, r, j.events)
	}
}

func (s *Server) handleJobSeries(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.pathJob(w, r); ok {
		obs.ServeSeries(w, r, j.live, j.finish)
	}
}

func (s *Server) handleArtifactList(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.pathJob(w, r); ok {
		writeJSON(w, http.StatusOK, artifactNames(j.Dir))
	}
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j, ok := s.pathJob(w, r)
	if !ok {
		return
	}
	name := r.PathValue("name")
	// One path segment, no traversal: artifacts are the flat regular
	// files of the job directory, nothing else is reachable.
	if name == "" || strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad artifact name %q", name))
		return
	}
	path := filepath.Join(j.Dir, name)
	f, err := os.Open(path)
	if err != nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no artifact %q", name))
		return
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no artifact %q", name))
		return
	}
	// Not ServeFile: that would redirect "index.html" to the directory.
	http.ServeContent(w, r, name, fi.ModTime(), f)
}

// handleMetrics is the fleet metrics plane: scheduler gauges plus every
// live frame of every job, labeled {job=...,cell=...} (the per-job host
// sampler publishes as cell="host").
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	states := map[string]int{}
	var frames []*obs.LiveSample
	var labels []string
	for _, js := range s.Jobs() {
		states[js.State]++
		j, ok := s.job(js.ID)
		if !ok {
			continue
		}
		for _, f := range j.live.Frames() {
			frames = append(frames, f)
			labels = append(labels, fmt.Sprintf("{job=%q,cell=%q}", js.ID, f.Run))
		}
	}
	fmt.Fprintln(w, "# TYPE nwcache_serve_jobs gauge")
	for _, st := range []string{StateQueued, StateRunning, StateDone, StatePoisoned, StateFailed, StateCancelled} {
		fmt.Fprintf(w, "nwcache_serve_jobs{state=%q} %d\n", st, states[st])
	}
	fmt.Fprintf(w, "# TYPE nwcache_serve_queue_depth gauge\nnwcache_serve_queue_depth %d\n", len(s.queue))
	obs.WriteMetricsText(w, frames, func(i int, _ *obs.LiveSample) string { //nolint:errcheck // client went away
		return labels[i]
	})
}
