package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"time"
)

// options fixes one run of one workload.
type options struct {
	seed    int64
	seconds float64 // budget of the timed phase
	reps    int     // > 0: exactly this many timed reps instead of a budget
	trace   bool
	scale   float64 // > 0 overrides the workload's scale
	setups  int     // set-up measurements
	golden  string  // overrides the expected digest of the paper tables
}

// minReps is the fewest timed reps a budget-bound run makes.
const minReps = 3

// metric is one reported value with the samples it summarizes.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// result is everything one run of one workload measured.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	// HostClock holds wall times that drift with the host and are not
	// gated: rep_s and ref_s (of the reference kernel), which rep_rel is
	// made of, and setup_wall_s, the wall-clock twin of setup_s.
	HostClock map[string]metric `json:"host_clock"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
}

// checker validates reps: every cell's digest against the reference
// table and against the first successful rep, the rendered output
// against the first rep's, and the rep's own checks.
type checker struct {
	b      *bench
	res    *result
	ref    map[string]string // cell key -> digest of the first good rep
	output string
	counts map[string]float64 // per-layer counts of the first traced rep
}

// check records one attempted rep and reports whether it passed.
func (c *checker) check(out repOut, err error) bool {
	c.res.Attempted++
	problems := out.problems
	if err != nil {
		problems = append(problems, err.Error())
	}
	if err == nil {
		if len(out.records) != len(c.b.cells) {
			problems = append(problems, fmt.Sprintf("%d cell results, want %d", len(out.records), len(c.b.cells)))
		}
		fresh := c.ref == nil
		if fresh {
			c.ref = map[string]string{}
			c.output = out.output
		} else if out.output != c.output {
			problems = append(problems, fmt.Sprintf("output digest %s differs from the first rep's %s", out.output, c.output))
		}
		for i, r := range out.records {
			if i < len(c.b.cells) {
				cell := c.b.cells[i]
				if r.Key != cell.Key() {
					problems = append(problems, fmt.Sprintf("result %d is for %s seed %d, want %s seed %d", i, r.Label, r.Seed, cell.Label(), cell.Cfg.Seed))
				} else if want, ok := expectedDigest(cell); ok && r.Digest != want {
					problems = append(problems, fmt.Sprintf("%s seed %d: digest %s, reference %s", r.Label, r.Seed, r.Digest, want))
				}
			}
			if fresh {
				c.ref[r.Key] = r.Digest
			} else if r.Digest != c.ref[r.Key] {
				problems = append(problems, fmt.Sprintf("%s seed %d: digest %s differs from the first rep's", r.Label, r.Seed, r.Digest))
			}
		}
		if fresh && len(problems) > 0 {
			c.ref = nil
		}
	}
	if len(problems) == 0 {
		return true
	}
	c.res.Failed++
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "%s: rep %d: %s\n", c.res.Workload, c.res.Attempted, p)
		if len(c.res.Problems) < 20 {
			c.res.Problems = append(c.res.Problems, p)
		}
	}
	return false
}

// checkCounts requires a traced rep's work counts to repeat the first
// traced rep's exactly.
func (c *checker) checkCounts(counts map[string]float64) string {
	if c.counts == nil {
		c.counts = counts
		return ""
	}
	for name, v := range counts {
		if v != c.counts[name] {
			return fmt.Sprintf("work count %s = %g, first traced rep had %g", name, v, c.counts[name])
		}
	}
	return ""
}

// runWorkload measures one workload: one untimed warm-up rep, the timed
// reps, each bracketed by the reference kernel (see reference), with
// set-up measured between them, and (when tracing) a shorter traced
// phase.
func runWorkload(w *workload, o options) (*result, error) {
	b, err := newBench(w, o.seed, o.scale, o.golden)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.name, Seed: o.seed, EndToEnd: map[string]metric{}}
	chk := &checker{b: b, res: res}

	// Set-up is measured between the timed reps, spread over the budget,
	// so its median samples the host across the run as rep_rel does.
	var setups, setupWalls []float64
	setup := func() error {
		wall, cpu, err := measureSetup(b)
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, cpu.Seconds())
		setupWalls = append(setupWalls, wall.Seconds())
		return nil
	}

	chk.check(w.rep(b, false))
	lanes := 1
	if w.pooled {
		lanes = b.workers
	}
	ref := newReference(lanes)
	defer ref.close()
	var reps, refs, rels, allocs []float64
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	var last time.Duration
	after := ref.time()
	for i := 0; ; i++ {
		if o.reps > 0 && i >= o.reps || o.reps <= 0 && i >= minReps && time.Since(start)+last > budget {
			break
		}
		before := after
		t := time.Now()
		out, err := w.rep(b, false)
		last = time.Since(t)
		after = ref.time()
		if chk.check(out, err) {
			around := (before + after).Seconds() / 2
			reps = append(reps, out.wall.Seconds())
			refs = append(refs, around)
			rels = append(rels, out.wall.Seconds()/around)
			allocs = append(allocs, out.allocMB)
		}
		for len(setups) < o.setups && (o.seconds <= 0 || float64(len(setups)) < float64(o.setups)*time.Since(start).Seconds()/o.seconds) {
			if err := setup(); err != nil {
				return nil, err
			}
		}
	}
	for len(setups) < o.setups {
		if err := setup(); err != nil {
			return nil, err
		}
	}
	res.EndToEnd["setup_s"] = metric{Value: median(setups), Unit: "s", Samples: setups}
	res.EndToEnd["rep_rel"] = metric{Value: median(rels), Unit: "x", Samples: rels}
	res.HostClock = map[string]metric{
		"rep_s":        {Value: median(reps), Unit: "s", Samples: reps},
		"ref_s":        {Value: median(refs), Unit: "s", Samples: refs},
		"setup_wall_s": {Value: median(setupWalls), Unit: "s", Samples: setupWalls},
	}
	res.EndToEnd["alloc_mb_per_rep"] = metric{Value: median(allocs), Unit: "MB", Samples: allocs}
	res.EndToEnd["peak_rss_mb"] = metric{Value: peakRSSMB(), Unit: "MB"}
	if o.trace {
		if err := traceWorkload(b, chk, len(reps), median(reps)); err != nil {
			return nil, err
		}
		for _, d := range perLayer() {
			if _, ok := res.PerLayer[d.name]; !ok {
				// A failed rep or probe left it unmeasured; the failure
				// is already counted.
				res.PerLayer[d.name] = metric{Unit: d.unit}
			}
		}
	}
	return res, nil
}

// setupEnv, when set in a process's environment, makes it a set-up
// child: "<workload> <seed> <scale>" names what to build.
const setupEnv = "BENCHMARK_SETUP_CHILD"

// measureSetup times one set-up from child start to the first rep: it
// starts this executable as a set-up child, which builds what the first
// rep starts from and reports ready. That covers process start, runtime
// and package initialisation, instantiating the workload, and its
// prepare step. It returns the wall time the parent saw and the CPU time
// (user + system, every thread) the child had used when it got ready,
// which leaves out the time the host ran something else. The parent
// collects its garbage first, so no GC work of its own competes with the
// child.
func measureSetup(b *bench) (wall, cpu time.Duration, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s %d %g", setupEnv, b.w.name, b.seed, b.scale))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, 0, err
	}
	runtime.GC()
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, 0, err
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	wall = time.Since(start)
	if err := cmd.Wait(); err != nil {
		return 0, 0, fmt.Errorf("set-up child: %w", err)
	}
	if _, err := fmt.Sscanf(line, "ready %d\n", &cpu); readErr != nil || err != nil || cpu <= 0 {
		return 0, 0, fmt.Errorf("set-up child reported %q", line)
	}
	return wall, cpu, nil
}

// setupChild is the body of a set-up child (see measureSetup).
func setupChild(arg string) error {
	var name string
	var seed int64
	var scale float64
	if _, err := fmt.Sscanf(arg, "%s %d %g", &name, &seed, &scale); err != nil {
		return fmt.Errorf("%s=%q: %w", setupEnv, arg, err)
	}
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	b, err := newBench(w, seed, scale, "")
	if err != nil {
		return err
	}
	release, err := w.prepare(b)
	if err != nil {
		return err
	}
	cpu, err := processCPU()
	if err != nil {
		return err
	}
	fmt.Printf("ready %d\n", cpu)
	release()
	return nil
}

// traceWorkload runs the traced phase — cell registries, a CPU profile,
// GC counters and wall timers — over a quarter of the timed reps (at
// least 2), then times the harness's own calls into the workload and
// core layers.
func traceWorkload(b *bench, chk *checker, timedReps int, untraced float64) error {
	n := max(2, timedReps/4)
	var prof bytes.Buffer
	var reps, renders []float64
	fracs := map[string][]float64{}
	var lastOut repOut
	before := readRuntime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		out, err := b.w.rep(b, true)
		if err == nil {
			counts := layerCounts(out)
			if p := chk.checkCounts(counts); p != "" {
				out.problems = append(out.problems, p)
			}
		}
		if chk.check(out, err) {
			reps = append(reps, out.wall.Seconds())
			renders = append(renders, out.renderShare)
			for _, c := range wallCalls {
				fracs[c] = append(fracs[c], out.walls[c].Seconds()/out.wall.Seconds())
			}
			lastOut = out
		}
	}
	pprof.StopCPUProfile()
	after := readRuntime()

	pl := map[string]metric{}
	chk.res.PerLayer = pl
	put := func(name, unit string, v float64) { pl[name] = metric{Value: v, Unit: unit} }
	counts := chk.counts
	for name, v := range counts {
		put(name, "count", v)
	}
	if untraced > 0 {
		put("trace_overhead", "ratio", median(reps)/untraced)
	}
	put("runtime.gc_cycles", "cycles", float64(after.gcCycles-before.gcCycles)/float64(n))
	gcFrac := 0.0
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		gcFrac = (after.gcCPU - before.gcCPU) / cpu
	}
	put("runtime.gc_cpu_frac", "share", gcFrac)
	put("exp.render_share", "share", median(renders))
	for _, c := range wallCalls {
		put(c+"_frac", "share", median(fracs[c]))
	}
	nsPerEvent := 0.0
	if ev := counts["sim.events"]; ev > 0 {
		nsPerEvent = untraced * 1e9 / ev
	}
	put("sim.ns_per_event", "ns", nsPerEvent)

	shares, err := flatShares(prof.Bytes())
	if err != nil {
		return err
	}
	for bucket, v := range shares {
		put(bucket+".share", "share", v)
	}

	var ops int64
	var opNS, setupMS []float64
	for i := 0; i < min(n, 3) && lastOut.records != nil; i++ {
		o, d, err := probeWorkload(b.cells)
		if err != nil {
			chk.check(repOut{}, fmt.Errorf("workload probe: %w", err))
			break
		}
		ops = o
		opNS = append(opNS, float64(d.Nanoseconds())/float64(max(o, 1)))
		if d, err = probeSetup(b.cells); err != nil {
			chk.check(repOut{}, fmt.Errorf("set-up probe: %w", err))
			break
		}
		setupMS = append(setupMS, float64(d)/1e6)
	}
	put("workload.ops", "count", float64(ops))
	put("workload.opgen_ns_per_op", "ns", median(opNS))
	put("core.setup_ms", "ms", median(setupMS))
	return nil
}
