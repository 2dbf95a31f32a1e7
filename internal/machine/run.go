package machine

import (
	"errors"
	"fmt"
	"strings"

	"nwcache/internal/fault"
	"nwcache/internal/sim"
	"nwcache/internal/stats"
)

// Program is a parallel application the machine can execute: one thread
// per node, each driven through a Ctx. Implementations live in
// internal/workload.
type Program interface {
	// Name identifies the application (e.g. "lu").
	Name() string
	// DataPages returns the virtual-memory footprint in pages (for
	// reporting; Table 2 of the paper).
	DataPages() int64
	// Run executes thread `proc` of the application to completion. A
	// Touch or Compute may take effect after its call returns (see Ctx),
	// so Go state shared between threads may be handed over only across
	// a Barrier or Lock operation.
	Run(ctx *Ctx, proc int)
}

// Result aggregates one simulation run.
type Result struct {
	App  string
	Kind Kind
	Mode string

	ExecTime  int64 // pcycles: completion of the slowest thread
	Breakdown stats.Breakdown
	PerNode   []stats.Breakdown

	Faults       uint64
	RingHits     uint64
	DiskHits     uint64
	DiskMisses   uint64
	SwapOuts     uint64
	CleanEvicts  uint64
	AvgSwapTime  float64 // pcycles per swap-out (frame-release latency)
	Combining    float64 // pages per media write access
	RingHitRate  float64 // ring hits / faults
	FaultHitLat  float64 // fault latency when served by a disk cache hit
	NetBytes     int64
	NetMessages  uint64
	MaxLinkUtil  float64
	RingPeakUsed int
	RemoteAccs   uint64
	LocalAccs    uint64

	// FaultStats snapshots the injector's account when fault injection was
	// attached (nil otherwise — the report then omits the fault section,
	// keeping unfaulted output byte-identical to builds without the
	// subsystem). FaultSummary is the injector's rendered block.
	FaultStats   *fault.Stats
	FaultSummary string
}

// Run executes a program on the machine and collects the result. A
// machine instance runs exactly one program; build a fresh Machine per
// run.
func (m *Machine) Run(prog Program) (*Result, error) {
	procs := m.Cfg.Nodes
	m.barrier = sim.NewBarrier(m.E, procs)
	// Size every node's page-keyed indexes once from the footprint, so
	// none of them regrows geometrically during the run.
	pages := prog.DataPages()
	for _, n := range m.Nodes {
		n.TLB.Presize(pages)
		n.CC.Presize(pages)
		n.Pool.Presize(pages)
	}
	for i := 0; i < procs; i++ {
		i := i
		n := m.Nodes[i]
		m.E.Spawn(fmt.Sprintf("cpu%d", i), func(p *sim.Proc) {
			ctx := newCtx(i, procs, m.Cfg.Seed)
			ctx.m, ctx.n, ctx.p = m, n, p
			ctx.ops, ctx.step = make([]cpuOp, 0, runAhead), ctx.wake
			prog.Run(ctx, i)
			ctx.drain()
			n.doneAt = p.Now()
		})
	}
	err := m.E.Run()
	var dead *sim.DeadlockError
	if err == nil || errors.As(err, &dead) {
		// Swap-outs are continuations: the deadlock report cannot name them.
		err = errors.Join(err, m.strandedSwapOuts())
	}
	if err != nil {
		return nil, fmt.Errorf("machine: %s on %s/%s: %w", prog.Name(), m.Kind, m.Mode, err)
	}
	// Flush the final telemetry sample at completion time, so a series
	// always ends on the run's last state even when the execution time is
	// not a tick multiple (Sampler.Tick ignores a repeated instant).
	m.sampler.Tick(m.E.Now())
	return m.collect(prog), nil
}

// strandedSwapOuts reports the nodes whose swap-outs never finished (their
// swap-out permits are not all back once the engine has drained).
func (m *Machine) strandedSwapOuts() error {
	var stuck []string
	for _, n := range m.Nodes {
		if k := m.Cfg.SwapQueueDepth - n.swapSem.Available(); k > 0 {
			stuck = append(stuck, fmt.Sprintf("node %d (%d)", n.ID, k))
		}
	}
	if stuck == nil {
		return nil
	}
	return fmt.Errorf("swap-outs stranded at t=%d: %s", m.E.Now(), strings.Join(stuck, ", "))
}

// collect builds the Result after the simulation has drained.
func (m *Machine) collect(prog Program) *Result {
	r := &Result{
		App:  prog.Name(),
		Kind: m.Kind,
		Mode: m.Mode.String(),
	}
	for _, n := range m.Nodes {
		if n.doneAt > r.ExecTime {
			r.ExecTime = n.doneAt
		}
	}
	var swap stats.Mean
	var hitLat stats.Mean
	for _, n := range m.Nodes {
		// Everything not explicitly categorized is Other: compute, cache
		// misses, bus traffic, synchronization.
		other := n.doneAt - n.charged
		if other < 0 {
			panic(fmt.Sprintf("machine: node %d charged %d > runtime %d", n.ID, n.charged, n.doneAt))
		}
		n.CPU.Add(stats.Other, other)
		r.PerNode = append(r.PerNode, n.CPU)
		r.Breakdown.Merge(n.CPU)
		r.Faults += n.Faults
		r.RingHits += n.RingHits
		r.DiskHits += n.DiskHits
		r.DiskMisses += n.DiskMisses
		r.SwapOuts += n.SwapOuts
		r.CleanEvicts += n.CleanEvicts
		r.RemoteAccs += n.RemoteAccs
		r.LocalAccs += n.LocalAccs
		swap.Merge(n.SwapTime)
		hitLat.Merge(n.FaultHitLat)
	}
	r.AvgSwapTime = swap.Value()
	r.FaultHitLat = hitLat.Value()
	var comb stats.Mean
	for _, d := range m.Disks {
		if d != nil {
			comb.Merge(d.Combining)
		}
	}
	r.Combining = comb.Value()
	if r.Faults > 0 {
		r.RingHitRate = float64(r.RingHits) / float64(r.Faults)
	}
	r.NetBytes = m.Mesh.Bytes
	r.NetMessages = m.Mesh.Messages
	r.MaxLinkUtil = m.Mesh.MaxLinkUtilization()
	if m.Ring != nil {
		r.RingPeakUsed = m.Ring.PeakUsed
	}
	if m.flt != nil {
		s := m.flt.Stats
		r.FaultStats = &s
		r.FaultSummary = m.flt.Summary()
	}
	return r
}
