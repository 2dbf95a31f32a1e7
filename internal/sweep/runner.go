package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"nwcache/internal/core"
	"nwcache/internal/exp/pool"
	"nwcache/internal/guard"
	"nwcache/internal/machine"
	"nwcache/internal/obs"
	"nwcache/internal/sim"
	"nwcache/internal/stats"
)

// ErrIncomplete is returned by Runner.Run when the shard stopped before
// finishing every cell (the -max-cells cap, or a graceful drain);
// re-running the same shard resumes from the STATE file.
var ErrIncomplete = errors.New("sweep: shard incomplete (resume to continue)")

// ReasonQuarantined is the reason a cell.poisoned event carries for a
// cell skipped because STATE already quarantines it; every other reason
// is a fresh quarantine's verdict.
const ReasonQuarantined = "quarantined"

// ErrPoisoned is returned by Runner.Run when every owned cell has a
// STATE record but some of those records are poison quarantines: the
// shard cannot emit its outputs (a quarantined cell has no result) and
// the poisoned cells need a -retry-poison pass or a fix. The CLI maps
// this to its own exit code so CI can tell "poisoned" from "broken".
var ErrPoisoned = errors.New("sweep: poisoned cells remain (re-run with -retry-poison, or fix and retry)")

// Summary is the accounting of one shard run: how each owned cell was
// satisfied. FromState cells were skipped via the STATE file (with a
// digest-verified cache entry backing the record); FromCache cells had
// no STATE record but a verified cache entry (e.g. completed by a
// killed run's in-flight workers, or by an earlier overlapping sweep);
// Fresh cells were actually simulated. Poisoned counts cells
// quarantined by a panic or a watchdog verdict — fresh quarantines and
// replayed poison records alike; PoisonRetried counts replayed poison
// records that were re-admitted under RetryPoison.
type Summary struct {
	Shard, Shards int
	Cells         int
	FromState     int
	FromCache     int
	Fresh         int
	Poisoned      int
	PoisonRetried int
	Done          bool
}

// String renders the one-line progress summary the CLI prints (and the
// CI resume gate greps). The poison suffix only appears when cells
// were quarantined, so clean runs keep the historical format.
func (s Summary) String() string {
	status := "complete"
	if !s.Done {
		status = "incomplete"
	}
	line := fmt.Sprintf("shard %d/%d %s: %d cells = %d state + %d cache + %d fresh",
		s.Shard, s.Shards, status, s.Cells, s.FromState, s.FromCache, s.Fresh)
	if s.Poisoned > 0 {
		line += fmt.Sprintf(" (%d poisoned)", s.Poisoned)
	}
	return line
}

// Runner executes one shard of a sweep grid with checkpoint/resume.
type Runner struct {
	Spec   *Spec
	Shard  int // shard index in [0, Shards)
	Shards int // total shards (>= 1)
	Dir    string

	// Pool schedules the simulations (nil: a private GOMAXPROCS pool).
	Pool *pool.Pool
	// CacheDir overrides the cache location (default Dir/cache) so
	// overlapping sweeps in different directories can share results.
	CacheDir string
	// MaxFresh, when > 0, stops the shard after that many fresh
	// simulations — Run then returns ErrIncomplete and the next Run
	// resumes. This is also how CI simulates a mid-sweep kill.
	MaxFresh int

	// FS is the host filesystem seam for everything the shard persists
	// (STATE, cache, shard outputs). nil: the real OS. The chaos
	// harness injects seeded faults here.
	FS guard.FS
	// Retry bounds transient host-I/O retries on STATE appends and
	// cache traffic. nil: a retrier with guard.DefaultRetryPolicy(0),
	// so ENOSPC/EINTR/short-write blips degrade instead of killing the
	// shard.
	Retry *guard.Retrier
	// Guard supervises each fresh cell with a wall-clock budget and a
	// stuck-run watchdog (the zero value disables supervision — cells
	// are waited on unbounded, exactly as before the guard layer).
	// Violations quarantine the cell as a STATE poison record; the
	// shard keeps going.
	Guard guard.CellGuard
	// RetryPoison re-admits cells whose replayed STATE record is a
	// poison quarantine (the -retry-poison pass).
	RetryPoison bool
	// Draining, when it reports true, makes the shard stop admitting
	// cells: in-flight cells finish and checkpoint, then Run returns
	// ErrIncomplete so a later run resumes. This is the signal-drain
	// hook — the CLI flips it on SIGINT/SIGTERM.
	Draining func() bool
	// Sabotage, if set, makes matching cells panic inside their
	// simulation (through the observability hook, so the cell key is
	// unchanged). This exists for the chaos harness — a deliberately
	// panicking cell proves the quarantine path end to end.
	Sabotage func(c core.Cell) bool

	// OnEvent, if set, receives the shard's structured lifecycle events
	// (obs.Event), the runner's one report path: shard start/done, a
	// cell.start per cell submitted for simulation, and one event per
	// cell settling (STATE replay, cache adoption, fresh completion,
	// poison with its reason), each carrying done/total progress and —
	// once a fresh duration is known — an ETA projected from the mean
	// fresh-cell wall time. Events are advisory telemetry and never
	// touch the artifacts; unset costs nothing.
	OnEvent func(ev obs.Event)
	// Live, if set, receives a published live view per fresh cell (the
	// service layer's /metrics and /series feed). When the spec samples
	// series the record sampler is published as-is; otherwise a live-only
	// sampler at DefaultLiveInterval is attached, which never reaches the
	// cell's cache record — merged artifacts stay byte-identical either way.
	Live *obs.LiveSet

	cache *Cache
}

// DefaultLiveInterval is the live-only sampler tick period (pcycles)
// when a Live set is attached but the spec itself samples no series.
const DefaultLiveInterval = 100_000

// Paths within the sweep directory.
func (r *Runner) statePath() string {
	return filepath.Join(r.Dir, fmt.Sprintf("shard-%dof%d.state", r.Shard, r.Shards))
}
func (r *Runner) ndjsonPath() string {
	return filepath.Join(r.Dir, fmt.Sprintf("shard-%dof%d.ndjson", r.Shard, r.Shards))
}
func (r *Runner) manifestPath() string {
	return filepath.Join(r.Dir, fmt.Sprintf("shard-%dof%d.manifest.json", r.Shard, r.Shards))
}

// MergedPaths returns the merged artifact locations for a sweep
// directory: the NDJSON of every cell record, the merged manifest, and
// the merged series file (written only when the spec samples series).
func MergedPaths(dir string) (ndjson, manifest, series string) {
	return filepath.Join(dir, "merged.ndjson"),
		filepath.Join(dir, "merged.manifest.json"),
		filepath.Join(dir, "merged.series.ndjson")
}

// obsCapture holds the per-cell observability a fresh run produced.
type obsCapture struct {
	reg *obs.Registry
	smp *obs.Sampler
}

// Run executes (or resumes) the shard: replay the STATE file, verify
// cached cells, simulate what is missing through a bounded submission
// window, and checkpoint each completion. Each cell's line is written to
// the shard NDJSON as the cell settles, in grid order, from the record
// Run already holds (the digest-verified cache entry of a STATE or cache
// cell, or a fresh cell's new record), so no cell is decoded twice. The
// NDJSON takes its final name, and the shard manifest is written, only
// when every owned cell is done; otherwise no shard output is left.
// Returns ErrIncomplete when MaxFresh or a drain stopped the shard early,
// and ErrPoisoned when quarantined cells remain.
func (r *Runner) Run() (Summary, error) {
	start := time.Now()
	sum := Summary{Shard: r.Shard, Shards: r.Shards}
	if r.Spec == nil || r.Dir == "" {
		return sum, fmt.Errorf("sweep: runner needs a spec and a directory")
	}
	if r.Shards < 1 {
		r.Shards = 1
		sum.Shards = 1
	}
	if r.Shard < 0 || r.Shard >= r.Shards {
		return sum, fmt.Errorf("sweep: shard %d out of range [0, %d)", r.Shard, r.Shards)
	}
	fsys := guard.Or(r.FS)
	retry := r.Retry
	if retry == nil {
		retry = guard.NewRetrier(guard.DefaultRetryPolicy(0))
	}
	if err := fsys.MkdirAll(r.Dir, 0o755); err != nil {
		return sum, err
	}
	cacheDir := r.CacheDir
	if cacheDir == "" {
		cacheDir = filepath.Join(r.Dir, "cache")
	}
	var err error
	if r.cache, err = OpenCacheOn(fsys, retry, cacheDir); err != nil {
		return sum, err
	}
	state, done, _, err := OpenStateOn(fsys, retry, r.statePath(), r.Spec.Digest(), r.Shard, r.Shards)
	if err != nil {
		return sum, err
	}
	defer state.Close()
	out, err := createShardOut(fsys, retry, r.ndjsonPath())
	if err != nil {
		return sum, err
	}
	defer out.discard()

	sched := r.Pool
	if sched == nil {
		sched = pool.New(0)
	}

	// Lifecycle events: every emission happens on Run's goroutine, so the
	// progress counters need no locking. The ETA is the mean fresh-cell
	// wall time projected over the unsettled remainder — advisory only.
	total := r.Spec.ShardSize(r.Shard, r.Shards)
	var (
		processed int   // cells settled (replayed, adopted, finished, poisoned)
		freshDone int   // fresh cells finished OK
		freshDur  int64 // summed wall time of those, ns
	)
	emit := func(ev obs.Event) {
		if r.OnEvent == nil {
			return
		}
		ev.Done = processed
		ev.Total = total
		if ev.EtaNS == 0 && freshDone > 0 && processed < total {
			ev.EtaNS = freshDur / int64(freshDone) * int64(total-processed)
		}
		r.OnEvent(ev)
	}
	emit(obs.Event{Type: obs.EventShardStart, Key: r.Spec.Digest()})

	// Per-key observability captures for fresh runs: the Obs hook fires
	// once per executed simulation; memoized duplicates share the entry.
	var (
		obsMu   sync.Mutex
		obsByKy = map[string]*obsCapture{}
	)
	observe := func(key string, c core.Cell, m *machine.Machine) {
		if r.Sabotage != nil && r.Sabotage(c) {
			panic(fmt.Sprintf("sweep: sabotaged cell %s", c.Label()))
		}
		oc := &obsCapture{reg: obs.NewRegistry()}
		m.Observe(oc.reg, nil)
		liveRun := fmt.Sprintf("%s seed=%d", c.Label(), c.Cfg.Seed)
		if r.Spec.SeriesInterval > 0 {
			oc.smp = obs.NewSampler(oc.reg, r.Spec.SeriesInterval, 0)
			if r.Live != nil {
				// A published view rides the record sampler without
				// touching its exported values.
				r.Live.Add(oc.smp.Publish(liveRun))
			}
			m.StartSampler(oc.smp)
		} else if r.Live != nil {
			// No recorded series: attach a live-only sampler. It keeps no
			// record buffers and is never exported, so the cell's cache
			// record — and with it every artifact digest — is exactly
			// what an unobserved run writes.
			live, view := obs.NewLiveSampler(oc.reg, DefaultLiveInterval, liveRun)
			r.Live.Add(view)
			m.StartSampler(live)
		}
		obsMu.Lock()
		obsByKy[key] = oc
		obsMu.Unlock()
	}

	// Bounded submission window: enough in-flight cells to keep the
	// pool busy without materializing a million futures.
	window := 4 * sched.Workers()
	if window < 16 {
		window = 16
	}
	// The queue holds every admitted cell in grid order until its line is
	// written: a fresh cell until it finishes, a STATE or cache cell (no
	// future) from admission, already settled.
	type pending struct {
		fut   *pool.Future // nil: settled at admission
		cell  core.Cell
		key   string
		probe *sim.Progress
		start time.Time
		idx   int
		rec   *Record // the settled record; nil for a quarantined cell
	}
	var inflight []pending
	freshBudget := r.MaxFresh
	capped := false

	// poison quarantines one cell: its STATE record becomes a poison
	// line instead of crashing (or hard-failing) the shard, and the
	// remaining cells keep going.
	poison := func(p *pending, reason string) error {
		sum.Poisoned++
		processed++
		obsMu.Lock()
		delete(obsByKy, p.key)
		obsMu.Unlock()
		emit(obs.Event{Type: obs.EventCellPoisoned, Cell: p.cell.Label(), Idx: p.idx, Reason: reason})
		return state.AppendPoison(p.key, reason, time.Since(p.start).Nanoseconds())
	}

	// finish waits for a fresh cell, caches and checkpoints its record,
	// and leaves it in p.rec (nil when the cell is quarantined).
	finish := func(p *pending) error {
		if r.Guard.Enabled() {
			// Supervised wait: the watchdog polls the future, tracks
			// simulated-time progress through the probe, and aborts a
			// cell that blows its budget or stops advancing. A wedged
			// cell (ignored the abort past the grace period) is
			// abandoned, never joined — its goroutine and pool slot
			// leak, but its STATE and cache are untouched, so a resume
			// retries it cleanly.
			var probe guard.Prober
			if p.probe != nil {
				probe = p.probe
			}
			verdict := r.Guard.Supervise(func(d time.Duration) bool {
				_, _, ok := p.fut.WaitTimeout(d)
				return ok
			}, probe)
			if verdict == guard.VerdictWedged {
				return poison(p, verdict.String())
			}
			if verdict != guard.VerdictOK {
				p.fut.Wait() // completed within grace: drain the abort error
				return poison(p, verdict.String())
			}
		}
		res, err := p.fut.Wait()
		if err != nil {
			var perr *pool.PanicError
			if errors.As(err, &perr) {
				return poison(p, "panic")
			}
			var aerr *sim.AbortError
			if errors.As(err, &aerr) {
				return poison(p, aerr.Reason)
			}
			return fmt.Errorf("sweep: cell %s: %w", p.cell.Label(), err)
		}
		obsMu.Lock()
		oc := obsByKy[p.key]
		delete(obsByKy, p.key)
		obsMu.Unlock()
		var snap obs.Snapshot
		var series []obs.SeriesData
		if oc != nil {
			snap = oc.reg.Snapshot()
			series = oc.smp.Export("")
		}
		e := &Entry{Record: NewRecord(p.cell, res, snap, series),
			DurationNS: time.Since(p.start).Nanoseconds()}
		if err := r.cache.Put(e); err != nil {
			return err
		}
		if err := state.Append(StateRec{Key: p.key, Digest: e.Digest, DurationNS: e.DurationNS}); err != nil {
			return err
		}
		p.rec = &e.Record
		processed++
		freshDone++
		freshDur += e.DurationNS
		emit(obs.Event{Type: obs.EventCellDone, Cell: p.cell.Label(), Idx: p.idx, DurationNS: e.DurationNS})
		return nil
	}

	// advance writes the settled cells at the head of the queue. A fresh
	// head is waited for only while the queue holds at least limit
	// entries, so limit window keeps the queue bounded and limit 0
	// drains it.
	advance := func(limit int) error {
		for len(inflight) > 0 {
			p := &inflight[0]
			if p.fut != nil {
				if len(inflight) < limit {
					return nil
				}
				if err := finish(p); err != nil {
					return err
				}
			}
			if err := out.write(p.idx, p.rec); err != nil {
				return err
			}
			inflight = slices.Delete(inflight, 0, 1)
		}
		return nil
	}

	err = r.Spec.EachShardCell(r.Shard, r.Shards, func(idx int, c core.Cell) error {
		sum.Cells++
		key := c.Key()
		settled := func(e *Entry) error {
			inflight = append(inflight, pending{idx: idx, rec: &e.Record})
			return advance(window)
		}
		if rec, ok := done[key]; ok {
			if rec.Status == StatusPoison {
				// A quarantined cell: skipped (the shard will report
				// ErrPoisoned) unless this is a retry pass, in which
				// case it falls through to a fresh submission and a
				// new "ok" record supersedes the poison line.
				if !r.RetryPoison {
					out.discard() // the shard cannot complete
					sum.Poisoned++
					processed++
					emit(obs.Event{Type: obs.EventCellPoisoned, Cell: c.Label(), Idx: idx, Reason: ReasonQuarantined})
					return nil
				}
				sum.PoisonRetried++
			} else if e, ok := r.cache.Get(key); ok && e.Digest == rec.Digest {
				// STATE says done — but the record is only trusted when
				// the cache entry is present, digest-verified, and
				// matches the STATE digest; anything else re-runs the
				// cell.
				sum.FromState++
				processed++
				emit(obs.Event{Type: obs.EventCellState, Cell: c.Label(), Idx: idx})
				return settled(e)
			}
		} else if e, ok := r.cache.Get(key); ok {
			// No STATE record, but a verified cache entry (an earlier
			// sweep, or a killed run's completed-but-unrecorded cell):
			// adopt it into the STATE file.
			sum.FromCache++
			if err := state.Append(StateRec{Key: key, Digest: e.Digest, DurationNS: e.DurationNS}); err != nil {
				return err
			}
			processed++
			emit(obs.Event{Type: obs.EventCellCache, Cell: c.Label(), Idx: idx})
			return settled(e)
		}
		if (freshBudget == 0 && r.MaxFresh > 0) || (r.Draining != nil && r.Draining()) {
			// The MaxFresh cap, or a graceful drain: stop admitting
			// cells. In-flight cells finish and checkpoint below, then
			// Run reports ErrIncomplete so the next invocation resumes.
			capped = true
			out.discard()
			return nil
		}
		c.Obs = func(c core.Cell, m *machine.Machine) { observe(key, c, m) }
		var probe *sim.Progress
		if r.Guard.Enabled() {
			// One probe per submission, attached to every supervised
			// cell's engine; it is excluded from the cell key.
			probe = &sim.Progress{Every: sim.DefaultProbeEvery}
			c.Probe = probe
		}
		fut, _ := sched.Submit(c)
		sum.Fresh++
		if r.MaxFresh > 0 {
			freshBudget--
		}
		emit(obs.Event{Type: obs.EventCellStart, Cell: c.Label(), Idx: idx})
		inflight = append(inflight, pending{fut: fut, cell: c, key: key, probe: probe, start: time.Now(), idx: idx})
		return advance(window)
	})
	if err == nil {
		err = advance(0)
	}
	if err != nil {
		return sum, err
	}
	if capped {
		emit(obs.Event{Type: obs.EventShardDone, Key: r.Spec.Digest(), Reason: "incomplete"})
		return sum, ErrIncomplete
	}
	sum.Done = true
	if sum.Poisoned > 0 {
		// Every owned cell has a STATE record, but quarantined cells
		// have no results: the shard cannot emit outputs yet.
		emit(obs.Event{Type: obs.EventShardDone, Key: r.Spec.Digest(), Reason: "poisoned"})
		return sum, ErrPoisoned
	}
	if err := out.commit(); err != nil {
		return sum, err
	}
	man, err := r.sweepManifest(out.cells, out.metrics.Snapshot(), out.dw.Sum())
	if err != nil {
		return sum, err
	}
	man.WallNS = time.Since(start).Nanoseconds()
	man.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	if err := man.WriteFile(r.manifestPath()); err != nil {
		return sum, err
	}
	emit(obs.Event{Type: obs.EventShardDone, Key: r.Spec.Digest(), Reason: "complete"})
	return sum, nil
}

// shardOut is a shard's NDJSON output while its cells settle: lines
// are written in grid order under a temp name in the shard directory,
// and each line's metrics are folded for the shard manifest. The file
// takes its final name only on commit, so a shard that stops early, or
// holds a quarantined cell, leaves neither a shard NDJSON nor a temp
// file. Writes ride the retry budget beneath the digest, so a retried
// short write cannot corrupt the digest over the file's actual bytes.
type shardOut struct {
	fsys    guard.FS
	retry   *guard.Retrier
	final   string
	f       guard.File // nil once discarded or committed
	dw      *obs.DigestWriter
	enc     *json.Encoder
	metrics obs.Fold
	cells   int
}

func createShardOut(fsys guard.FS, retry *guard.Retrier, final string) (*shardOut, error) {
	f, err := fsys.CreateTemp(filepath.Dir(final), ".tmp-"+filepath.Base(final)+"-*")
	if err != nil {
		return nil, err
	}
	dw := obs.NewDigestWriter(&guard.RetryWriter{W: f, R: retry})
	return &shardOut{fsys: fsys, retry: retry, final: final, f: f, dw: dw, enc: json.NewEncoder(dw)}, nil
}

// write appends cell idx's line. A nil record (a quarantined cell)
// means the shard cannot complete, and discards the output.
func (o *shardOut) write(idx int, rec *Record) error {
	if o.f == nil {
		return nil
	}
	if rec == nil {
		o.discard()
		return nil
	}
	o.cells++
	o.metrics.Add(rec.Metrics)
	return o.enc.Encode(&Line{Idx: idx, Record: *rec})
}

// discard drops the output and removes its temp file. Idempotent.
func (o *shardOut) discard() {
	if o.f == nil {
		return
	}
	o.f.Close()
	o.fsys.Remove(o.f.Name())
	o.f = nil
}

// commit closes the temp file and renames it to the final name under
// the retry budget, as Cache.Put's rename is.
func (o *shardOut) commit() error {
	tmp := o.f.Name()
	err := o.f.Close()
	o.f = nil
	if err == nil {
		err = o.retry.Do(func() error { return o.fsys.Rename(tmp, o.final) })
	}
	if err != nil {
		o.fsys.Remove(tmp)
	}
	return err
}

// sweepManifest builds the common manifest shell for shard and merged
// outputs.
func (r *Runner) sweepManifest(cells int, merged obs.Snapshot, digest string) (*obs.Manifest, error) {
	return sweepManifest(r.Spec, fmt.Sprintf("%d/%d", r.Shard, r.Shards), cells, merged, digest)
}

func sweepManifest(spec *Spec, shard string, cells int, merged obs.Snapshot, digest string) (*obs.Manifest, error) {
	params, err := json.Marshal(spec.BaseConfig())
	if err != nil {
		return nil, err
	}
	return &obs.Manifest{
		Tool:    "nwsweep",
		Seed:    spec.Seeds[0],
		Runs:    cells,
		Spec:    spec.Digest(),
		Shard:   shard,
		Params:  params,
		Metrics: merged,
		Digest:  digest,
	}, nil
}

// Merge streams the shard outputs of a completed sweep into the merged
// artifacts: one NDJSON with every cell record in grid order, one
// manifest whose metrics are the shard manifests folded together and
// whose digest pins the merged NDJSON bytes, and (when the spec samples
// series) one merged series file. Every cell's identity and digest is
// re-verified against the spec during the merge, so a missing,
// duplicated, or corrupted shard output fails loudly. The merged
// manifest and NDJSON are wall-clock-free: two sweeps of the same grid
// — interrupted or not, whatever the shard count — produce byte-
// identical merged artifacts.
//
// The summary is written to out: two pivot tables, execution time
// (Mpcycles) and average swap-out time (Kpcycles), with one row per
// application and one column per combination of the other axes (see
// pivotColumns). They hold two formatted numbers per cell.
func Merge(spec *Spec, dir string, shards int, out io.Writer) (int, error) {
	return MergeOn(nil, nil, spec, dir, shards, out)
}

// MergeOn is Merge through an explicit filesystem and retry budget:
// shard reads and merged writes go through fsys (nil: the real OS)
// with transient faults retried under retry (nil: one attempt), so an
// EINTR blip mid-merge degrades instead of failing the whole merge.
func MergeOn(fsys guard.FS, retry *guard.Retrier, spec *Spec, dir string, shards int, out io.Writer) (int, error) {
	fsys = guard.Or(fsys)
	if shards < 1 {
		shards = 1
	}
	type shardIn struct {
		f  guard.File
		sc *bufio.Scanner
	}
	ins := make([]*shardIn, shards)
	defer func() {
		for _, in := range ins {
			if in != nil {
				in.f.Close()
			}
		}
	}()
	var mergedSnap obs.Fold
	for i := 0; i < shards; i++ {
		base := filepath.Join(dir, fmt.Sprintf("shard-%dof%d", i, shards))
		f, err := fsys.Open(base + ".ndjson")
		if err != nil {
			return 0, fmt.Errorf("sweep: shard %d output missing (run the shard to completion first): %w", i, err)
		}
		sc := bufio.NewScanner(&guard.RetryReader{Rd: f, R: retry})
		sc.Buffer(nil, maxLine)
		ins[i] = &shardIn{f: f, sc: sc}
		mf, err := fsys.Open(base + ".manifest.json")
		if err != nil {
			return 0, err
		}
		man, err := obs.ReadManifest(&guard.RetryReader{Rd: mf, R: retry})
		mf.Close()
		if err != nil {
			return 0, err
		}
		if man.Spec != spec.Digest() {
			return 0, fmt.Errorf("sweep: shard %d manifest belongs to spec %.12s…, want %.12s…", i, man.Spec, spec.Digest())
		}
		mergedSnap.Add(man.Metrics)
	}

	ndjsonPath, manifestPath, seriesPath := MergedPaths(dir)
	f, err := fsys.Create(ndjsonPath)
	if err != nil {
		return 0, err
	}
	dw := obs.NewDigestWriter(&guard.RetryWriter{W: f, R: retry})
	enc := json.NewEncoder(dw)
	axes, cols := spec.pivotColumns()
	exec := make([][]string, len(spec.Apps))
	swap := make([][]string, len(spec.Apps))
	seriesByName := make(map[string]obs.SeriesData)
	cells := 0
	var buf []byte // a verified line being copied out
	err = spec.EachCell(func(idx int, c core.Cell) error {
		in := ins[ShardOf(idx, shards)]
		if !in.sc.Scan() {
			err := in.sc.Err()
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("sweep: shard %d output ended early at cell %d: %w", ShardOf(idx, shards), idx, err)
		}
		raw := in.sc.Bytes()
		var line mergeLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return fmt.Errorf("sweep: shard %d output at cell %d: %w", ShardOf(idx, shards), idx, err)
		}
		if key := c.Key(); line.Idx != idx || line.Key != key {
			return fmt.Errorf("sweep: shard %d output out of order: got cell %d key %.12s…, want cell %d key %.12s…",
				ShardOf(idx, shards), line.Idx, line.Key, idx, key)
		}
		if line.Result == nil || ResultDigest(line.Result) != line.Digest {
			return fmt.Errorf("sweep: cell %d (%s) fails digest verification in shard output", idx, line.Label)
		}
		cells++
		row := idx / len(cols)
		exec[row] = append(exec[row], stats.FmtF(float64(line.Result.ExecTime)/1e6, 1))
		swap[row] = append(swap[row], stats.FmtF(line.Result.AvgSwapTime/1e3, 1))
		for _, sd := range line.Series {
			if have, ok := seriesByName[sd.Name]; ok {
				seriesByName[sd.Name] = have.Merge(sd)
			} else {
				sd.Run = ""
				seriesByName[sd.Name] = sd
			}
		}
		if len(line.Series) == 0 {
			// Copy the verified line's bytes: only this package's
			// encoder writes shard files, so they already are the
			// canonical encoding of the line, and its metrics need no
			// decoding.
			buf = append(append(buf[:0], raw...), '\n')
			_, err := dw.Write(buf)
			return err
		}
		// Merged series live in their own artifact: re-encode the line
		// without them.
		var full Line
		if err := json.Unmarshal(raw, &full); err != nil {
			return err
		}
		full.Series = nil
		return enc.Encode(&full)
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return cells, err
	}
	for _, in := range ins {
		if in.sc.Scan() {
			return cells, fmt.Errorf("sweep: a shard output has extra cells beyond the grid")
		}
	}

	// The shard tag is a constant "merged" — not "merged/<n>" — so the
	// merged manifest is byte-identical whatever the shard count was.
	man, err := sweepManifest(spec, "merged", cells, mergedSnap.Snapshot(), dw.Sum())
	if err != nil {
		return cells, err
	}
	if err := man.WriteFile(manifestPath); err != nil {
		return cells, err
	}

	if spec.SeriesInterval > 0 && len(seriesByName) > 0 {
		names := make([]string, 0, len(seriesByName))
		for name := range seriesByName {
			names = append(names, name)
		}
		sort.Strings(names)
		series := make([]obs.SeriesData, 0, len(names))
		for _, name := range names {
			series = append(series, seriesByName[name])
		}
		sf, err := fsys.Create(seriesPath)
		if err != nil {
			return cells, err
		}
		err = obs.WriteSeriesNDJSON(&guard.RetryWriter{W: sf, R: retry}, series)
		if cerr := sf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return cells, err
		}
	}

	if out != nil {
		name := spec.Name
		if name == "" {
			name = "sweep"
		}
		by := ""
		if len(axes) > 0 {
			by = "; columns: " + strings.Join(axes, " ")
		}
		for _, tab := range []struct {
			metric string
			rows   [][]string
		}{{"exec Mpcycles", exec}, {"average swap-out Kpcycles", swap}} {
			t := &stats.Table{
				// No shard count in the title: the summary, like the merged
				// artifacts, must not depend on how the sweep was partitioned.
				Title:   fmt.Sprintf("Sweep %s (%.12s…): %d cells, %s%s", name, spec.Digest(), cells, tab.metric, by),
				Headers: append([]string{"Application"}, cols...),
			}
			for i, app := range spec.Apps {
				t.AddRow(append([]string{app}, tab.rows[i]...)...)
			}
			fmt.Fprintln(out, t)
		}
	}
	return cells, nil
}

// mergeLine is what Merge decodes of a shard line: enough to verify the
// cell's identity and result digest, fill the pivot tables and merge the
// series. The metrics are skipped unread.
type mergeLine struct {
	Idx    int              `json:"idx"`
	Key    string           `json:"key"`
	Label  string           `json:"label"`
	Result *core.Result     `json:"result"`
	Series []obs.SeriesData `json:"series"`
	Digest string           `json:"digest"`
}

// maxLine bounds one NDJSON line of a shard or merged output (a cell
// with a long series can be large).
const maxLine = 1 << 30

// ReadLines streams a shard or merged NDJSON file, calling fn per cell
// line (nwreport's sweep table input). Blank lines are skipped; a line
// may be as long as Merge writes one.
func ReadLines(rd io.Reader, fn func(Line) error) error {
	sc := bufio.NewScanner(rd)
	sc.Buffer(nil, maxLine)
	for sc.Scan() {
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		var line Line
		if err := json.Unmarshal(b, &line); err != nil {
			return fmt.Errorf("sweep: decoding cell line: %w", err)
		}
		if err := fn(line); err != nil {
			return err
		}
	}
	return sc.Err()
}
