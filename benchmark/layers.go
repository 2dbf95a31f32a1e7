package main

import (
	"fmt"
	"io"
	"path"
	"path/filepath"
	"runtime/metrics"
	"syscall"
	"time"

	"nwcache/internal/core"
	"nwcache/internal/machine"
	"nwcache/internal/obs"
	"nwcache/internal/sweep"
)

// snapshotCounts maps each per-layer work count to the cell-registry
// metrics (machine.Observe) it sums; '*' stands for a node number.
var snapshotCounts = []struct{ name, pattern string }{
	{"sim.events", "sim.events_dispatched"},
	{"sim.wakes", "sim.wake_handoffs"},
	{"sim.heap_peak", "sim.heap_peak"},
	{"machine.faults", "machine.faults"},
	{"machine.swap_outs", "machine.swap_outs"},
	{"machine.ring_hits", "machine.ring_hits"},
	{"machine.disk_hits", "machine.disk_hits"},
	{"machine.disk_misses", "machine.disk_misses"},
	{"machine.local_accesses", "machine.local_accesses"},
	{"machine.remote_accesses", "machine.remote_accesses"},
	{"coherence.cc_hits", "node*.cc.hits"},
	{"coherence.cc_misses", "node*.cc.misses"},
	{"coherence.invalidations", "dir.invalidations"},
	{"coherence.forwards", "dir.forwards"},
	{"vm.reserve", "vm.reserve"},
	{"vm.adopt", "vm.adopt"},
	{"vm.unmap", "vm.unmap"},
	{"vm.release_frame", "vm.release_frame"},
	{"mesh.messages", "mesh.messages"},
	{"mesh.bytes", "mesh.bytes"},
	{"disk.reads", "disk*.reads"},
	{"disk.writes", "disk*.writes"},
	{"disk.writes_nack", "disk*.writes_nack"},
	{"disk.media_reads", "disk*.media_reads"},
	{"disk.media_writes", "disk*.media_writes"},
	{"optical.inserts", "ring.inserts"},
	{"optical.drains", "ring.drains"},
	{"optical.victim_hits", "ring.victim_hits"},
	{"optical.batches", "iface*.batches"},
}

// harnessCounts are work counts the rep reports itself (repOut.counts).
var harnessCounts = []string{"pool.runs", "pool.hits", "sweep.fresh", "sweep.from_cache"}

// wallCalls are the sweep and serve calls a traced service rep
// wall-times (repOut.walls). Each is reported as "<call>_frac": its wall
// time over the rep's, the most a faster call could save of rep_s. Only
// service-grid makes these calls; on the other workloads they read 0.
var wallCalls = []string{
	"sweep.cache_put", "sweep.cache_get", "sweep.state_append", "sweep.merge",
	"serve.submit", "serve.status", "serve.artifact", "serve.job_warm",
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the gated metrics, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rep_rel", "x"},
	{"alloc_mb_per_rep", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists every metric of the traced phase.
func perLayer() []metricDef {
	defs := []metricDef{{"trace_overhead", "ratio"}}
	for _, c := range snapshotCounts {
		defs = append(defs, metricDef{c.name, "count"})
	}
	for _, c := range harnessCounts {
		defs = append(defs, metricDef{c, "count"})
	}
	defs = append(defs,
		metricDef{"workload.ops", "count"},
		metricDef{"workload.opgen_ns_per_op", "ns"},
		metricDef{"sim.ns_per_event", "ns"},
		metricDef{"runtime.gc_cycles", "cycles"},
		metricDef{"runtime.gc_cpu_frac", "share"},
		metricDef{"exp.render_share", "share"},
		metricDef{"core.setup_ms", "ms"},
	)
	for _, c := range wallCalls {
		defs = append(defs, metricDef{c + "_frac", "share"})
	}
	for _, b := range shareBuckets() {
		defs = append(defs, metricDef{b + ".share", "share"})
	}
	return defs
}

// layerCounts folds the cells' registry snapshots into the per-layer
// counts of one rep, plus the rep's own counts.
func layerCounts(out repOut) map[string]float64 {
	var merged obs.Snapshot
	for _, r := range out.records {
		merged = merged.Merge(r.Metrics)
	}
	counts := map[string]float64{}
	for _, c := range snapshotCounts {
		var sum float64
		for _, mv := range merged {
			if ok, _ := path.Match(c.pattern, mv.Name); ok {
				sum += float64(mv.Value)
			}
		}
		counts[c.name] = sum
	}
	for _, name := range harnessCounts {
		counts[name] = out.counts[name]
	}
	return counts
}

// runtimeStats reads the process-wide GC and CPU counters.
type runtimeStats struct {
	gcCycles        uint64
	gcCPU, totalCPU float64 // seconds
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeStats{
		gcCycles: s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
	}
}

// peakRSSMB is the process's peak resident set (Linux reports ru_maxrss
// in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// processCPU is the CPU time (user + system) every thread of the process
// has used so far. Under a hypervisor with steal-time accounting it
// leaves out the time the vCPU was taken away.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// probeWorkload generates every cell's operation stream through
// recording contexts, simulating nothing: the cost of the workload
// layer alone.
func probeWorkload(cells []core.Cell) (ops int64, d time.Duration, err error) {
	for _, c := range cells {
		prog, err := core.NewProgram(c.App, c.Cfg)
		if err != nil {
			return 0, 0, err
		}
		n := c.Cfg.Nodes
		start := time.Now()
		for proc := 0; proc < n; proc++ {
			prog.Run(machine.NewRecordingCtx(proc, n, c.Cfg.Seed, func(machine.OpEvent) { ops++ }), proc)
		}
		d += time.Since(start)
	}
	return ops, d, nil
}

// probeSetup times building every cell's program and machine.
func probeSetup(cells []core.Cell) (time.Duration, error) {
	start := time.Now()
	_, machines, err := buildCells(cells)
	d := time.Since(start)
	discard(machines)
	return d, err
}

// probeSweep times the sweep layer's calls on the data of a service rep
// whose legs have finished: a cache Get of every cell from the server's
// result cache (filled by the cold leg), a Put of each entry into a
// fresh cache, one STATE Append per cell into a fresh STATE file, and a
// Merge over the warm job's directory.
func probeSweep(b *bench, s *service, jobID string) (map[string]time.Duration, error) {
	walls := map[string]time.Duration{}
	cache, err := sweep.OpenCache(filepath.Join(s.dir, "cache"))
	if err != nil {
		return nil, err
	}
	entries := make([]*sweep.Entry, 0, len(b.cells))
	start := time.Now()
	for _, c := range b.cells {
		e, ok := cache.Get(c.Key())
		if !ok {
			return nil, fmt.Errorf("the server's cache lacks cell %s", c.Label())
		}
		entries = append(entries, e)
	}
	walls["sweep.cache_get"] = time.Since(start)

	fresh, err := sweep.OpenCache(filepath.Join(s.dir, "probe-cache"))
	if err != nil {
		return nil, err
	}
	start = time.Now()
	for _, e := range entries {
		if err := fresh.Put(e); err != nil {
			return nil, err
		}
	}
	walls["sweep.cache_put"] = time.Since(start)

	state, _, _, err := sweep.OpenState(filepath.Join(s.dir, "probe.state"), b.spec.Digest(), 0, 1)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	for _, e := range entries {
		if err := state.Append(sweep.StateRec{Key: e.Key, Digest: e.Digest}); err != nil {
			state.Close()
			return nil, err
		}
	}
	walls["sweep.state_append"] = time.Since(start)
	if err := state.Close(); err != nil {
		return nil, err
	}

	start = time.Now()
	if _, err := sweep.Merge(b.spec, filepath.Join(s.dir, "jobs", jobID), 1, io.Discard); err != nil {
		return nil, err
	}
	walls["sweep.merge"] = time.Since(start)
	return walls, nil
}
