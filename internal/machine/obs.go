package machine

import (
	"fmt"

	"nwcache/internal/obs"
	"nwcache/internal/sim"
)

// Span track layout: one lane per CPU (faults), one per node's swap-out
// daemon, then one per I/O node's disk mechanism and NWCache interface.
// Swap lanes can carry overlapping spans (a node may have several
// swap-outs in flight); trace viewers render them stacked.
func (m *Machine) cpuTrack(node int) int   { return node }
func (m *Machine) swapTrack(node int) int  { return len(m.Nodes) + node }
func (m *Machine) diskTrack(node int) int  { return 2*len(m.Nodes) + node }
func (m *Machine) ifaceTrack(node int) int { return 3*len(m.Nodes) + node }

// Observe wires the machine and every subsystem beneath it into a
// metrics registry and (optionally) a span trace. Call once, after New
// and before Run. Both arguments may be nil: a nil registry skips all
// metric wiring, a nil trace skips span emission, and with both nil the
// machine runs exactly as if Observe had never been called — metrics
// only read simulation state, never steer it, so observed and
// unobserved runs produce byte-identical results.
//
// Scope layout: sim (engine dispatch), mesh, ring (+ per-channel),
// dir, nodeN.cc, vm (machine-wide frame transitions), diskN / ifaceN
// per I/O node, fault/swap latency histograms, and machine (aggregate
// node counters).
func (m *Machine) Observe(reg *obs.Registry, tr *obs.Trace) {
	m.Spans = tr
	root := reg.Root() // nil-safe: nil registry => nil scopes => nil handles
	m.E.Observe(root.Scope("sim"))
	m.Mesh.Observe(root.Scope("mesh"))
	if m.Ring != nil {
		m.Ring.Observe(root.Scope("ring"))
	}
	m.Dir.Observe(root.Scope("dir"))
	vmScope := root.Scope("vm")
	for _, n := range m.Nodes {
		n.Pool.Observe(vmScope) // all pools share one machine-wide counter set
		n.CC.Observe(root.Scope(fmt.Sprintf("node%d", n.ID)).Scope("cc"))
		tr.SetTrack(m.cpuTrack(n.ID), fmt.Sprintf("cpu%d", n.ID))
		tr.SetTrack(m.swapTrack(n.ID), fmt.Sprintf("swap%d", n.ID))
	}
	for _, ioNode := range m.Layout.IONodes() {
		d := m.Disks[ioNode]
		d.Observe(root.Scope(fmt.Sprintf("disk%d", ioNode)))
		d.SetTrace(tr, m.diskTrack(ioNode))
		tr.SetTrack(m.diskTrack(ioNode), fmt.Sprintf("disk@%d", ioNode))
		if f := m.Ifaces[ioNode]; f != nil {
			f.Observe(root.Scope(fmt.Sprintf("iface%d", ioNode)))
			f.SetTrace(tr, m.ifaceTrack(ioNode))
			tr.SetTrack(m.ifaceTrack(ioNode), fmt.Sprintf("nwc-iface@%d", ioNode))
		}
	}
	fsc := root.Scope("fault")
	m.hFaultDisk = fsc.Histogram("disk_pcycles")
	m.hFaultRing = fsc.Histogram("ring_pcycles")
	m.hSwap = root.Scope("swap").Histogram("pcycles")
	m.flt.Observe(root.Scope("faultinj"))
	m.observeAggregates(root.Scope("machine"))
}

// StartSampler arms time-series telemetry: s samples every registered
// metric at its interval on the engine's clock-boundary tick hook
// (sim.Engine.SetTick), and Run flushes one final sample at completion
// time. Call after Observe (the sampler's columns are bound to the
// registry populated there) and before Run. Nil-safe: a nil sampler
// leaves the engine untouched, so disabled telemetry costs one
// predictable branch per event dispatch and nothing else. The tick hook
// only reads simulation state, so sampled and unsampled runs produce
// byte-identical results.
func (m *Machine) StartSampler(s *obs.Sampler) {
	if s == nil {
		return
	}
	m.sampler = s
	m.E.SetTick(s.Interval(), func(now sim.Time) { s.Tick(now) })
}

// observeAggregates registers machine-wide sums of the per-node counters
// as pull-based probes.
func (m *Machine) observeAggregates(sc *obs.Scope) {
	if sc == nil {
		return
	}
	sum := func(f func(*Node) uint64) func() int64 {
		return func() int64 {
			var t uint64
			for _, n := range m.Nodes {
				t += f(n)
			}
			return int64(t)
		}
	}
	sc.ProbeCounter("thread_resumes", func() int64 { return int64(m.threadResumes) })
	sc.ProbeCounter("explicit_reads", sum(func(n *Node) uint64 { return n.ExplicitReads }))
	sc.ProbeCounter("explicit_writes", sum(func(n *Node) uint64 { return n.ExplicitWrites }))
	sc.ProbeCounter("faults", sum(func(n *Node) uint64 { return n.Faults }))
	sc.ProbeCounter("ring_hits", sum(func(n *Node) uint64 { return n.RingHits }))
	sc.ProbeCounter("disk_hits", sum(func(n *Node) uint64 { return n.DiskHits }))
	sc.ProbeCounter("disk_misses", sum(func(n *Node) uint64 { return n.DiskMisses }))
	sc.ProbeCounter("remote_accesses", sum(func(n *Node) uint64 { return n.RemoteAccs }))
	sc.ProbeCounter("local_accesses", sum(func(n *Node) uint64 { return n.LocalAccs }))
	sc.ProbeCounter("swap_outs", sum(func(n *Node) uint64 { return n.SwapOuts }))
	sc.ProbeCounter("clean_evicts", sum(func(n *Node) uint64 { return n.CleanEvicts }))
	sc.ProbeCounter("wb_coalesced", sum(func(n *Node) uint64 {
		if n.WB == nil {
			return 0
		}
		return n.WB.Coalesced
	}))
	sc.ProbeCounter("wb_drained", sum(func(n *Node) uint64 {
		if n.WB == nil {
			return 0
		}
		return n.WB.Drained
	}))
	sc.ProbeCounter("wb_full_waits", sum(func(n *Node) uint64 {
		if n.WB == nil {
			return 0
		}
		return n.WB.FullWaits
	}))
}
