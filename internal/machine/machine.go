// Package machine assembles the full simulated multiprocessor — mesh
// interconnect, nodes (processor, TLB, cache filter, local memory, buses),
// disks with controller caches, and optionally the NWCache optical ring —
// and orchestrates the operating system's fault and swap-out protocols on
// top of the substrate packages.
//
// Two machine kinds are supported, matching the paper's comparison:
//
//   - Standard: swap-outs travel over the mesh to the disk controller
//     cache, governed by the ACK/NACK/OK flow-control protocol.
//   - NWCache: swap-outs are inserted on the node's optical cache channel
//     (freeing the frame immediately), drained to disk by the NWCache
//     interfaces, and victim-read straight off the ring on a fault.
package machine

import (
	"fmt"

	"nwcache/internal/coherence"
	"nwcache/internal/disk"
	"nwcache/internal/fault"
	"nwcache/internal/mesh"
	"nwcache/internal/obs"
	"nwcache/internal/optical"
	"nwcache/internal/param"
	"nwcache/internal/pfs"
	"nwcache/internal/sim"
	"nwcache/internal/stats"
	"nwcache/internal/tlb"
	"nwcache/internal/vm"
)

// PageID is a virtual page number.
type PageID = vm.PageID

// LineSize is the cache-line granularity (bytes) used for access costs.
const LineSize = 64

// Kind selects the machine architecture under evaluation.
type Kind int

// Machine kinds.
const (
	Standard Kind = iota
	NWCache
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == NWCache {
		return "nwcache"
	}
	return "standard"
}

// Node bundles everything living at one mesh position.
type Node struct {
	ID     int
	MemBus *sim.Resource
	IOBus  *sim.Resource
	TLB    *tlb.TLB
	CC     *coherence.Cache
	Pool   *vm.FramePool

	pendingIntr int64          // interrupt cycles to charge at next op
	swapSem     *sim.Semaphore // bounds outstanding swap-outs
	chanRoom    *sim.Cond      // NWCache: channel slot freed
	ringTx      *sim.Mutex     // NWCache: the node's single fixed transmitter
	WB          *writeBuffer   // coalescing write buffer (nil when disabled)

	// Replacement daemon state (see replace) and recycled swap jobs.
	replaceK func() // pre-bound m.replace(n)
	rp       replaceStep
	rpEn     *vm.Entry // victim in progress
	rpJob    *swapJob  // its swap-out, awaiting a permit
	swapJobs []*swapJob

	// stageBuf is the node's scratch for assembling sim.Pipeline stage
	// sequences. Safe to share across this node's actors because stage
	// assembly and the Pipeline reservations never wait.
	stageBuf []sim.Stage

	// CPU accounting (the paper's Figures 3/4 categories).
	CPU     stats.Breakdown
	charged int64
	doneAt  sim.Time

	// Counters.
	ExplicitReads  uint64
	ExplicitWrites uint64
	Faults         uint64
	RingHits       uint64
	DiskHits       uint64
	DiskMisses     uint64
	RemoteAccs     uint64
	LocalAccs      uint64
	SwapOuts       uint64
	CleanEvicts    uint64
	SwapTime       stats.Mean // frame-release latency per swap-out
	FaultHitLat    stats.Mean // fault latency when served by a disk cache hit
}

// Machine is one simulated multiprocessor instance.
type Machine struct {
	E      *sim.Engine
	Cfg    param.Config
	Kind   Kind
	Mode   disk.PrefetchMode
	Mesh   *mesh.Mesh
	Layout *pfs.Layout
	Table  *vm.Table
	Ring   *optical.Ring    // nil on Standard
	Ifaces []*optical.Iface // NWCache interfaces indexed by node id (nil off I/O nodes)
	Disks  []*disk.Disk     // indexed by node id (nil off I/O nodes)
	Nodes  []*Node

	// Dir is the machine-wide coherence directory (home state lives with
	// each page's current frame; see internal/coherence).
	Dir *coherence.Directory

	// Transfer times fixed by the configuration, computed once at build:
	// a page across a memory bus, an I/O bus and onto the ring, and a
	// coherence block across a memory bus.
	pageMemBus, pageIOBus, pageRing, blockMemBus int64

	// Spans receives simulated-clock spans ("fault.disk", "swap.ring",
	// ...) and protocol instants ("ring.insert", "clean.evict", ...; see
	// MODEL.md, "Spans") when observation is wired via Observe; nil
	// otherwise. The histograms aggregate fault and swap-out latencies
	// for the metric snapshot.
	Spans      *obs.Trace
	hFaultDisk *obs.Histogram
	hFaultRing *obs.Histogram
	hSwap      *obs.Histogram
	sampler    *obs.Sampler // time-series telemetry (StartSampler); nil = off

	barrier       *sim.Barrier
	locks         []*sim.Mutex // application locks by id, grown on demand
	threadResumes uint64       // times a callback resumed a thread (thread.go)

	// flt is the fault injector (nil = perfect hardware); see AttachFaults.
	flt *fault.Injector

	// msgPool recycles control-message deliveries (disk OKs, ring ACKs,
	// interface notices/cancels) so the protocol paths never allocate a
	// closure per message in flight.
	msgPool []*meshMsg
}

// meshMsg is one control message in flight across the mesh: a disk
// controller's OK, a ring ACK, or a swap notice/cancel bound for an
// NWCache interface. The run closure is pre-bound at construction and the
// message returns itself to the machine's pool on delivery, so sending a
// control message performs no allocation in steady state (the same
// discipline as swapJob for swap-outs).
type meshMsg struct {
	m    *Machine
	kind uint8
	to   int         // destination node (msgNotify/msgCancel: the I/O node)
	step func()      // msgOK: the NACKed writer's step; nil when none resends
	en   optical.Ref // ring messages: the entry concerned
	run  func()
}

// Control-message kinds for meshMsg.
const (
	msgOK uint8 = iota
	msgRingACK
	msgNotify
	msgCancel
)

// takeMsg pops a pooled control message (or builds one with its delivery
// body pre-bound).
func (m *Machine) takeMsg() *meshMsg {
	if k := len(m.msgPool); k > 0 {
		g := m.msgPool[k-1]
		m.msgPool = m.msgPool[:k-1]
		return g
	}
	g := &meshMsg{m: m}
	g.run = func() {
		switch g.kind {
		case msgOK:
			// Scheduled, not run in place: the writer runs after every
			// event already due at this instant.
			if g.step != nil {
				g.m.E.At(g.m.E.Now(), g.step)
			}
		case msgRingACK:
			g.m.ringACKArrived(g.to, g.en)
		case msgNotify:
			g.m.Ifaces[g.to].Notify(g.en)
		case msgCancel:
			g.m.Ifaces[g.to].Cancel(g.en)
		}
		g.en, g.step = optical.Ref{}, nil
		g.m.msgPool = append(g.m.msgPool, g)
	}
	return g
}

// New builds a machine of the given kind and prefetch mode.
func New(cfg param.Config, kind Kind, mode disk.PrefetchMode) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := sim.New()
	m := &Machine{
		E:      e,
		Cfg:    cfg,
		Kind:   kind,
		Mode:   mode,
		Mesh:   mesh.New(e, cfg),
		Layout: pfs.New(cfg),
		Table:  vm.NewTable(e),
		Ifaces: make([]*optical.Iface, cfg.Nodes),
		Disks:  make([]*disk.Disk, cfg.Nodes),
		Dir:    coherence.NewDirectory(),

		pageMemBus:  cfg.PageMemBusTime(),
		pageIOBus:   cfg.PageIOBusTime(),
		pageRing:    cfg.PageRingTime(),
		blockMemBus: param.TransferPcycles(BlockBytes, cfg.MemBusMBs),
	}
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{
			ID:       i,
			MemBus:   sim.NewResource(e, fmt.Sprintf("membus%d", i)),
			IOBus:    sim.NewResource(e, fmt.Sprintf("iobus%d", i)),
			TLB:      tlb.New(cfg.TLBEntries),
			CC:       coherence.NewCache(cfg.L2SubBlocks),
			Pool:     vm.NewFramePool(e, i, cfg.FramesPerNode(), cfg.MinFreeFrames),
			swapSem:  sim.NewSemaphore(e, cfg.SwapQueueDepth),
			chanRoom: sim.NewCond(e),
			ringTx:   sim.NewMutex(e),
		}
		m.Nodes = append(m.Nodes, n)
	}
	for _, ioNode := range m.Layout.IONodes() {
		d := disk.New(e, fmt.Sprintf("disk@%d", ioNode), cfg, mode)
		m.Disks[ioNode] = d
		ioNode := ioNode
		d.NotifyOK = func(node int, _ disk.PageID, step func()) { m.deliverOK(ioNode, node, step) }
	}
	if kind == NWCache {
		m.Ring = optical.New(e, cfg)
		for _, ioNode := range m.Layout.IONodes() {
			f := optical.NewIface(e, m.Ring, ioNode)
			if cfg.DrainRoundRobin {
				f.Policy = optical.RoundRobin
			}
			d := m.Disks[ioNode]
			f.DiskHasRoom = d.HasWriteRoom
			f.DiskBook = d.BookWrite
			f.DiskInstall = func(page optical.PageID) bool {
				return d.AnswerWrite(ioNode, page, m.Layout.BlockFor(page), nil) == disk.ACK
			}
			f.SendACK = func(ref optical.Ref) { m.deliverRingACK(ioNode, ref) }
			d.OnRoom = f.Kick
			m.Ifaces[ioNode] = f
		}
	}
	// Start the per-node replacement chains and (optionally) the
	// coalescing write buffers of Figure 1.
	for _, n := range m.Nodes {
		n := n
		n.replaceK = func() { m.replace(n) }
		e.At(e.Now(), n.replaceK)
		if cfg.WriteBufferDepth > 0 {
			n.WB = newWriteBuffer(m, n, cfg.WriteBufferDepth)
		}
	}
	return m, nil
}

// deliverOK routes a disk controller's OK message (room now available for a
// previously NACKed write) back to the writing node over the mesh, where
// it runs the writer's step. Every OK crosses the mesh, also one with a
// nil step (the NWCache interface's lost slot race): its link
// reservations delay the messages behind it.
func (m *Machine) deliverOK(from, to int, step func()) {
	arrive := m.Mesh.Transit(m.E.Now(), from, to, m.Cfg.CtrlMsgLen)
	g := m.takeMsg()
	g.kind, g.to, g.step = msgOK, to, step
	m.E.At(arrive, g.run)
}

// deliverRingACK routes the ACK for a page that left the ring (drained to
// disk or victim-read) to the node that swapped it out. On arrival the
// channel slot is released, the Ring bit is cleared, and swap-outs stalled
// on channel room are woken.
func (m *Machine) deliverRingACK(from int, ref optical.Ref) {
	to := m.Ring.OwnerOf(ref.Channel())
	arrive := m.Mesh.Transit(m.E.Now(), from, to, m.Cfg.CtrlMsgLen)
	g := m.takeMsg()
	g.kind, g.to, g.en = msgRingACK, to, ref
	m.E.At(arrive, g.run)
}

// ringACKArrived delivers a ring ACK at the swapping node. The page is
// still on the ring (only this ACK releases it), so ref resolves.
func (m *Machine) ringACKArrived(to int, ref optical.Ref) {
	en := ref.Entry()
	// Clear the Ring bit if the page is still recorded as on-ring
	// (a victim read may already have re-mapped it).
	if pte, ok := m.Table.Lookup(en.Page); ok && pte.State == vm.OnRing && pte.RingEntry == ref {
		pte.State = vm.Unmapped
		pte.Owner = -1
		pte.RingEntry = optical.Ref{}
		pte.Dirty = false // the disk controller now holds the data
		pte.Arrived.Broadcast()
	}
	m.Spans.Instant(m.swapTrack(to), "ring.release", m.E.Now(), en.Page)
	m.flt.NoteRingRelease(m.E.Now(), en.InsertedAt)
	m.Ring.Release(en)
	m.Nodes[to].chanRoom.Broadcast()
	// Room on the ring means drains happened; nothing else to do —
	// disk room changes are kicked by the disk write path itself.
}

// Lock returns (creating on demand) an application-level lock. Lock ids
// are small dense integers, so the registry is a slice grown on first use.
func (m *Machine) Lock(id int) *sim.Mutex {
	if id < 0 {
		panic(fmt.Sprintf("machine: negative lock id %d", id))
	}
	if id >= len(m.locks) {
		grown := make([]*sim.Mutex, id+id/2+4)
		copy(grown, m.locks)
		m.locks = grown
	}
	if m.locks[id] == nil {
		m.locks[id] = sim.NewMutex(m.E)
	}
	return m.locks[id]
}

// DiskFor returns the disk and its node id for a page.
func (m *Machine) DiskFor(page PageID) (*disk.Disk, int) {
	node := m.Layout.NodeFor(page)
	return m.Disks[node], node
}

// sendPage books the transfer of page from node n to its disk node: n's
// memory bus, the mesh path, then the disk node's I/O bus. It returns
// when the page is at the disk node.
func (m *Machine) sendPage(n *Node, page PageID) sim.Time {
	_, dn := m.DiskFor(page)
	stages := append(n.stageBuf[:0], sim.Stage{
		Res: n.MemBus, Occupy: m.pageMemBus, Forward: m.Cfg.HopLatency,
	})
	stages = m.Mesh.AppendPathStages(stages, n.ID, dn, m.Cfg.PageSize)
	stages = append(stages, sim.Stage{Res: m.Nodes[dn].IOBus, Occupy: m.pageIOBus})
	_, arrive := sim.Pipeline(m.E.Now(), stages)
	n.stageBuf = stages[:0]
	return arrive
}

// ThreadResumes reports how many times a callback resumed an application
// thread: its start, and each time its chain drained the run-ahead queue
// in a callback.
func (m *Machine) ThreadResumes() uint64 { return m.threadResumes }
