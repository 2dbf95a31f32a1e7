// Package disk models a disk drive and its controller as described in the
// paper's base system (§3.1):
//
//   - a small controller cache holding whole pages (16 KB = 4 slots by
//     default), in which writes are given preference over prefetches;
//   - page read requests served from the cache (hit) or the media (miss),
//     with two prefetching extremes: Optimal (every read is satisfied from
//     the cache, media reads happen in the background) and Naive (on a
//     miss the controller fills the remaining cache slots with the pages
//     sequentially following the missed one);
//   - swap-out writes answered with ACK when the page fits in the cache and
//     NACK otherwise; NACKs are recorded in a FIFO and an OK message is
//     sent when room appears, prompting the node to resend the page;
//   - dirty pages written back to the media with write combining: dirty
//     slots holding consecutive disk blocks are written in a single access
//     (one seek + rotation, n transfers).
//
// The mechanism (arm + platter) is a single FCFS resource; seek time is
// proportional to the distance from the current head position, scaled to
// the in-use block span.
package disk

import (
	"fmt"

	"nwcache/internal/fault"
	"nwcache/internal/obs"
	"nwcache/internal/param"
	"nwcache/internal/sim"
	"nwcache/internal/stats"
)

// PageID is a virtual page number (the paper equates pages and disk
// blocks; we keep both, related by the pfs layout).
type PageID = int64

// PrefetchMode selects the controller's prefetching policy.
type PrefetchMode int

// Prefetching policies. Naive and Optimal are the paper's two extremes
// (§3.1); Streamed is the repository's extension: per-requester
// sequential-stream detection with bounded read-ahead, the kind of
// "realistic and sophisticated" technique the paper expects to land
// between its extremes (§5, Discussion).
const (
	Naive PrefetchMode = iota
	Optimal
	Streamed
)

// String implements fmt.Stringer.
func (m PrefetchMode) String() string {
	switch m {
	case Optimal:
		return "optimal"
	case Streamed:
		return "streamed"
	}
	return "naive"
}

// WriteStatus is the controller's immediate answer to a swap-out write.
type WriteStatus int

// Write outcomes.
const (
	ACK  WriteStatus = iota // page accepted into the controller cache
	NACK                    // cache full of swap-outs; OK will follow
)

// slot is one page frame of the controller cache.
type slot struct {
	valid      bool
	page       PageID
	block      int64
	dirty      bool   // swap-out not yet on media
	busy       bool   // media write in flight for this slot's data
	prefetched bool   // filled by prefetch (clean, evictable by writes)
	lastUse    int64  // for clean-slot LRU
	seq        uint64 // arrival order of dirty data (write-back order)
}

// nackEntry records a NACKed write and the writer's step its OK runs.
type nackEntry struct {
	Node int
	Page PageID
	Step func()
}

// Disk is one drive + controller.
type Disk struct {
	e    *sim.Engine
	name string

	mode         PrefetchMode
	slots        []slot
	seqCounter   uint64
	useCounter   int64
	arm          armSched      // the mechanism
	ctrl         *sim.Resource // controller firmware occupancy
	ctrlOverhead int64
	minSeek      int64
	maxSeek      int64
	rot          int64
	pageXfer     int64 // media transfer time for one page
	headPos      int64
	maxBlockSeen int64
	wbDwell      int64

	// pendingPF tracks blocks with an in-flight sequential prefetch: a
	// read request for one of them waits for the fill instead of issuing a
	// duplicate media access, and counts as a controller-cache hit.
	pendingPF     map[int64]bool
	pendingPFDone *sim.Cond

	// streamHead tracks, per requesting node, the last block read — the
	// Streamed mode's stream detector. Indexed by node id (zero value
	// matches the "never seen" semantics of the former map).
	streamHead  []int64
	streamDepth int

	// dcd, when non-nil, is the Disk Caching Disk log interposed between
	// the controller cache and the data mechanism (§6 baseline).
	dcd *dcdLog

	nackFIFO  []nackEntry
	nackBatch []nackEntry // scratch for releaseNACKs

	// Write-back chain state: the step to resume at, its pre-bound
	// continuation and media access, and the group in flight. The scratch
	// buffers are reused across groups so the steady-state drain
	// allocates nothing.
	wbAt    uint8
	wbStep  func()
	wbMedia mediaOp
	wbT0    sim.Time
	wbStart int64 // the group's first media block
	wbDirty []blockIdx
	wbGroup []int
	wbSeqs  []uint64
	wbBlks  []int64

	pfJobs []*prefetchJob // idle prefetch jobs

	// NotifyOK is invoked when controller-cache room appears for a
	// previously NACKed write; the machine layer sends the node an OK
	// message that runs step. Must be set before use if writes can NACK.
	NotifyOK func(node int, page PageID, step func())
	// OnRoom, if set, fires after each completed media write-back, i.e.
	// whenever cache room may have appeared (used to kick the NWCache
	// interface's drain loop).
	OnRoom func()

	wbKick *sim.Cond // wakes the write-back chain

	// Statistics.
	Reads      uint64
	ReadHits   uint64
	Writes     uint64
	WritesACK  uint64
	WritesNACK uint64
	Combining  stats.Mean // pages per media write access
	MediaReads uint64
	MediaWrite uint64

	// Observation handles, nil until Observe/SetTrace wire them; the write
	// and write-back paths then pay one nil check each.
	tgDirty *obs.TimeGauge // dirty-slot count over simulated time
	hGroup  *obs.Histogram // write-combining run lengths
	tr      *obs.Trace     // media access spans (a write-back names its group's first page)
	track   int

	// Fault injection (nil = perfect hardware): transient media errors
	// with the controller's retry/backoff firmware, permanent bad-block
	// remaps, and degraded-mode latency windows.
	flt   *fault.Injector
	fltID int // this disk's index in the fault plan's disk= namespace
}

// New constructs a disk and starts its write-back chain (and, with the
// DCD log, the log's destage chain).
func New(e *sim.Engine, name string, cfg param.Config, mode PrefetchMode) *Disk {
	var arm armSched
	if cfg.DiskReadPriority {
		arm.prio = sim.NewServer(e, name+".arm")
	} else {
		arm.fcfs = sim.NewResource(e, name+".arm")
	}
	d := &Disk{
		e:            e,
		name:         name,
		mode:         mode,
		slots:        make([]slot, cfg.DiskCacheSlots()),
		arm:          arm,
		ctrl:         sim.NewResource(e, name+".ctrl"),
		ctrlOverhead: cfg.CtrlOverhead,
		minSeek:      cfg.MinSeek,
		maxSeek:      cfg.MaxSeek,
		rot:          cfg.RotLatency,
		pageXfer:     cfg.PageDiskTime(),
		maxBlockSeen: 1,
		wbDwell:      cfg.WBDwell,
		wbKick:       sim.NewCond(e),
		pendingPF:    make(map[int64]bool),
		streamHead:   make([]int64, cfg.Nodes),
		streamDepth:  cfg.StreamDepth,
	}
	d.pendingPFDone = sim.NewCond(e)
	if cfg.DCD {
		d.dcd = newDCDLog(e, d, cfg.DCDLogBlocks)
	}
	d.wbStep = d.writeback
	d.wbMedia.bind(d, d.wbStep)
	e.At(e.Now(), d.wbStep)
	return d
}

// Observe wires the controller's statistics into an obs scope: the
// existing counters as pull-based probes, a simulated-time gauge of
// dirty (unwritten swap-out) slots, and a histogram of write-combining
// run lengths. No-op on a nil scope.
func (d *Disk) Observe(sc *obs.Scope) {
	if sc == nil {
		return
	}
	sc.ProbeCounter("reads", func() int64 { return int64(d.Reads) })
	sc.ProbeCounter("read_hits", func() int64 { return int64(d.ReadHits) })
	sc.ProbeCounter("writes", func() int64 { return int64(d.Writes) })
	sc.ProbeCounter("writes_ack", func() int64 { return int64(d.WritesACK) })
	sc.ProbeCounter("writes_nack", func() int64 { return int64(d.WritesNACK) })
	sc.ProbeCounter("media_reads", func() int64 { return int64(d.MediaReads) })
	sc.ProbeCounter("media_writes", func() int64 { return int64(d.MediaWrite) })
	sc.ProbeCounter("arm_busy_pcycles", func() int64 { return d.ArmBusy() })
	sc.ProbeGauge("pending_nacks", func() int64 { return int64(d.PendingNACKs()) })
	sc.ProbeGauge("dcd_logged", func() int64 { return int64(d.DCDLogged()) })
	d.tgDirty = sc.TimeGauge("dirty_slots")
	d.hGroup = sc.Histogram("wb_group_len")
}

// SetTrace routes media access spans onto track of tr (nil disables).
func (d *Disk) SetTrace(tr *obs.Trace, track int) {
	d.tr, d.track = tr, track
}

// SetFaults attaches a fault injector; id is this disk's index in the
// plan's disk= namespace. A nil injector restores perfect hardware.
func (d *Disk) SetFaults(inj *fault.Injector, id int) {
	d.flt, d.fltID = inj, id
}

// noteDirty samples the dirty-slot gauge (call after any transition).
func (d *Disk) noteDirty() {
	if d.tgDirty != nil {
		d.tgDirty.Set(d.e.Now(), int64(d.DirtySlots()))
	}
}

// HasDCD reports whether the DCD log disk is attached.
func (d *Disk) HasDCD() bool { return d.dcd != nil }

// DCDLogged returns the number of blocks currently in the DCD log.
func (d *Disk) DCDLogged() int {
	if d.dcd == nil {
		return 0
	}
	return d.dcd.fifo.n
}

// Mode returns the prefetch mode.
func (d *Disk) Mode() PrefetchMode { return d.mode }

// seekTime returns the head movement cost from the current position to
// block, proportional to distance over the in-use span.
func (d *Disk) seekTime(block int64) int64 {
	dist := block - d.headPos
	if dist < 0 {
		dist = -dist
	}
	if block > d.maxBlockSeen {
		d.maxBlockSeen = block
	}
	span := d.maxBlockSeen
	if span < 1 {
		span = 1
	}
	if dist > span {
		dist = span
	}
	return d.minSeek + (d.maxSeek-d.minSeek)*dist/span
}

// find returns the slot index caching page, or -1.
func (d *Disk) find(page PageID) int {
	for i := range d.slots {
		if d.slots[i].valid && d.slots[i].page == page {
			return i
		}
	}
	return -1
}

// victim returns the best slot to receive new data: an invalid slot
// first, then the LRU clean (non-dirty, non-busy) slot. The paper's
// "writes are given preference over prefetches" emerges from the dirty
// shield: dirty slots are never evictable, prefetched ones always are.
// Returns -1 if every slot holds a dirty or in-flight page.
func (d *Disk) victim() int {
	best := -1
	for i := range d.slots {
		s := &d.slots[i]
		if !s.valid {
			return i
		}
		if s.dirty || s.busy {
			continue
		}
		if best == -1 || s.lastUse < d.slots[best].lastUse {
			best = i
		}
	}
	return best
}

// touch refreshes a slot's LRU stamp.
func (d *Disk) touch(i int) {
	d.useCounter++
	d.slots[i].lastUse = d.useCounter
}

// ReadOutcome classifies how a page read was served.
type ReadOutcome int

// Read outcomes.
const (
	Miss        ReadOutcome = iota // dedicated media access
	HitCache                       // satisfied immediately from the controller cache
	HitInflight                    // waited for an in-flight sequential prefetch
)

// Hit reports whether the outcome avoided a dedicated media access.
func (o ReadOutcome) Hit() bool { return o != Miss }

// readStep is where a page read resumes.
type readStep uint8

const (
	rdCtrl    readStep = iota // book the controller firmware
	rdLookup                  // controller done: cache, prefetch, log or media
	rdPending                 // wait for an in-flight sequential prefetch
	rdLogged                  // the DCD log read is over
	rdMedia                   // the dedicated media read is over
)

// ReadReq is one page read request at the controller, a continuation the
// requester owns and reuses: it fills From, Page, Block and Done, and Read
// reports how the controller served the read in Outcome. Done is called
// only as the last action of a whole engine event. Requesters rely on
// that contract: they run on from Done in the slot of that event, and a
// CPU chain resumes its thread from inside it.
type ReadReq struct {
	From    int    // requesting node
	Page    PageID // the page
	Block   int64  // its disk block
	Done    func() // run once the data is in the controller buffer
	Outcome ReadOutcome

	d          *Disk
	at         readStep
	streaming  bool
	mediaBlock int64
	t0         sim.Time
	media      mediaOp
	step       func() // pre-bound resume
}

// Read services the page read r from node r.From (one request per
// ReadReq; the controller can overlap cache hits with media activity).
// It reports true when the read finished at once; otherwise r.Done runs,
// from a callback, when the page data is available in the controller
// buffer, ready for the requester to move across the I/O bus.
func (d *Disk) Read(r *ReadReq) bool {
	if r.step == nil {
		r.step = func() {
			if r.advance() {
				r.Done()
			}
		}
	}
	r.d = d
	r.media.bind(d, r.step)
	r.at = rdCtrl
	return r.advance()
}

// advance runs the read until it must wait (false) or is served (true).
func (r *ReadReq) advance() bool {
	d := r.d
	for {
		switch r.at {
		case rdCtrl:
			d.Reads++
			r.at = rdLookup
			if !reserveThen(d.e, d.ctrl, d.ctrlOverhead, r.step) {
				return false
			}
		case rdLookup:
			from, page, block := r.From, r.Page, r.Block
			r.streaming = d.mode == Streamed && d.streamHead[from]+1 == block
			d.streamHead[from] = block
			if i := d.find(page); i >= 0 {
				d.touch(i)
				d.ReadHits++
				if r.streaming {
					d.extendStream(page, block)
				}
				r.Outcome = HitCache
				return true
			}
			if d.mode == Optimal {
				// Idealized prefetching: every request is satisfied from
				// the cache; the media read happened in the background.
				d.ReadHits++
				d.installClean(page, block, false)
				r.Outcome = HitCache
				return true
			}
			// A sequential prefetch for this block is already streaming
			// off the media: wait for it rather than issuing a duplicate
			// access.
			if d.pendingPF[block] {
				r.at = rdPending
				continue
			}
			// A block still sitting in the DCD log is read from the log
			// mechanism (a random log access, comparable in cost to the
			// data disk — §6).
			if d.dcd != nil && d.dcd.contains(block) {
				d.MediaReads++
				r.at = rdLogged
				if !d.dcd.readBlock(r.step) {
					return false
				}
				continue
			}
			// Dedicated media read.
			d.MediaReads++
			r.mediaBlock = d.flt.RemapBlock(d.fltID, block)
			dur := d.seekTime(r.mediaBlock) + d.rot + d.pageXfer
			r.t0 = d.e.Now()
			r.at = rdMedia
			if !r.media.start(sim.High, dur, true, true) {
				return false
			}
		case rdPending:
			if d.pendingPF[r.Block] {
				d.pendingPFDone.WaitThen(r.step)
				return false
			}
			d.ReadHits++
			if r.streaming {
				d.extendStream(r.Page, r.Block)
			}
			r.Outcome = HitInflight
			return true
		case rdLogged:
			d.installClean(r.Page, r.Block, false)
			r.Outcome = Miss
			return true
		case rdMedia:
			page, block := r.Page, r.Block
			d.tr.Span(d.track, "disk.read", r.t0, d.e.Now(), page)
			d.headPos = r.mediaBlock
			d.installClean(page, block, false)
			switch d.mode {
			case Naive:
				// Fill the remaining clean slots with sequentially-following
				// pages, whether or not the requester is actually sequential.
				d.spawnSequentialPrefetch(page, block, d.prefetchableSlots())
			case Streamed:
				// Read ahead only for a confirmed sequential stream, and only
				// a bounded window, so random requesters do not trash the
				// cache.
				if r.streaming {
					d.extendStream(page, block)
				}
			}
			r.Outcome = Miss
			return true
		}
	}
}

// extendStream prefetches the Streamed mode's read-ahead window beyond
// block, bounded by streamDepth and the clean slots available.
func (d *Disk) extendStream(page PageID, block int64) {
	n := d.prefetchableSlots()
	if n > d.streamDepth {
		n = d.streamDepth
	}
	// Skip pages already cached or in flight.
	for n > 0 && (d.find(page+1) >= 0 || d.pendingPF[block+1]) {
		page, block = page+1, block+1
		n--
	}
	if n > 0 {
		d.spawnSequentialPrefetch(page, block, n)
	}
}

// prefetchableSlots counts cache slots a prefetch could fill right now:
// invalid slots plus clean slots, reserving the most recently used clean
// slot (the demand page that triggered the prefetch must survive it).
func (d *Disk) prefetchableSlots() int {
	invalid, clean := 0, 0
	for i := range d.slots {
		s := &d.slots[i]
		switch {
		case !s.valid:
			invalid++
		case !s.dirty && !s.busy:
			clean++
		}
	}
	if clean > 0 {
		clean--
	}
	return invalid + clean
}

// installClean places a clean page into the cache if a slot is available;
// silently bypasses the cache otherwise.
func (d *Disk) installClean(page PageID, block int64, prefetched bool) {
	if d.find(page) >= 0 {
		return
	}
	i := d.victim()
	if i < 0 {
		return // cache full of dirty swap-outs: serve as bypass
	}
	d.slots[i] = slot{valid: true, page: page, block: block, prefetched: prefetched}
	d.touch(i)
}

// prefetchJob is one background sequential prefetch in flight, pooled
// per disk with its steps pre-bound.
type prefetchJob struct {
	d     *Disk
	page  PageID
	block int64
	n     int
	media mediaOp
	run   func() // pre-bound start
}

// spawnSequentialPrefetch reads the n blocks sequentially following
// `block` into clean cache slots, in the background.
func (d *Disk) spawnSequentialPrefetch(page PageID, block int64, n int) {
	if n <= 0 {
		return
	}
	for k := 1; k <= n; k++ {
		d.pendingPF[block+int64(k)] = true
	}
	var j *prefetchJob
	if k := len(d.pfJobs); k > 0 {
		j = d.pfJobs[k-1]
		d.pfJobs = d.pfJobs[:k-1]
	} else {
		j = &prefetchJob{d: d}
		j.media.bind(d, j.fill)
		j.run = func() {
			// Head is already at block: sequential read costs transfer only.
			if j.media.start(sim.High, int64(j.n)*j.d.pageXfer, true, true) {
				j.fill()
			}
		}
	}
	j.page, j.block, j.n = page, block, n
	d.e.At(d.e.Now(), j.run)
}

// fill installs the prefetched pages once the media read is over, wakes
// the reads waiting for them and returns the job to the pool.
func (j *prefetchJob) fill() {
	d, page, block, n := j.d, j.page, j.block, j.n
	d.headPos = block + int64(n)
	for k := 1; k <= n; k++ {
		d.installClean(page+int64(k), block+int64(k), true)
		delete(d.pendingPF, block+int64(k))
	}
	d.pendingPFDone.Broadcast()
	d.pfJobs = append(d.pfJobs, j)
}

// BookWrite books the controller firmware for a swap-out write arriving
// now and returns when the controller answers it; the caller calls
// AnswerWrite at that time.
func (d *Disk) BookWrite() sim.Time {
	d.Writes++
	return d.ctrl.Reserve(d.e.Now(), d.ctrlOverhead) + d.ctrlOverhead
}

// AnswerWrite decides a booked swap-out write. On ACK the page occupies a
// cache slot and is scheduled for combined write-back. On NACK the
// (node, page, step) entry is queued; NotifyOK hands step on when room
// appears (nil: the writer will not resend).
func (d *Disk) AnswerWrite(node int, page PageID, block int64, step func()) WriteStatus {
	if i := d.find(page); i >= 0 {
		// Overwrite of a page still cached: update in place.
		d.slots[i].dirty = true
		d.slots[i].prefetched = false
		d.seqCounter++
		d.slots[i].seq = d.seqCounter
		d.touch(i)
		d.WritesACK++
		d.noteDirty()
		d.wbKick.Signal()
		return ACK
	}
	i := d.victim()
	if i < 0 {
		d.WritesNACK++
		d.nackFIFO = append(d.nackFIFO, nackEntry{Node: node, Page: page, Step: step})
		return NACK
	}
	d.seqCounter++
	d.slots[i] = slot{valid: true, page: page, block: block, dirty: true, seq: d.seqCounter}
	d.touch(i)
	d.WritesACK++
	d.noteDirty()
	d.wbKick.Signal()
	return ACK
}

// HasWriteRoom reports whether a swap-out write would be ACKed right now.
func (d *Disk) HasWriteRoom() bool { return d.victim() >= 0 }

// DirtySlots returns the number of cache slots holding unwritten swap-outs.
func (d *Disk) DirtySlots() int {
	n := 0
	for i := range d.slots {
		if d.slots[i].valid && d.slots[i].dirty {
			n++
		}
	}
	return n
}

// PendingNACKs returns the depth of the NACK FIFO.
func (d *Disk) PendingNACKs() int { return len(d.nackFIFO) }

// Write-back steps (Disk.wbAt).
const (
	wbPick    uint8 = iota // pick the next write group, or wait for one
	wbDwell                // woken from idle: dwell before picking
	wbLogRoom              // DCD: wait for log room for the group
	wbLogged               // DCD: the group is on the log
	wbWritten              // the group's media write is over
)

// writeback drains dirty slots to the media, combining consecutive blocks
// into single accesses, and releases OKs for NACKed writes as room
// appears. It is a callback chain started at construction: d.wbAt names
// the step to resume at and d.wbStep is its pre-bound continuation.
func (d *Disk) writeback() {
	for {
		switch d.wbAt {
		case wbPick:
			group := d.pickWriteGroup()
			if len(group) == 0 {
				d.wbAt = wbDwell
				d.wbKick.WaitThen(d.wbStep)
				return
			}
			// Mark the group busy: the slots cannot be evicted or selected
			// for another write-back while their data streams to the
			// media, though reads may still hit them and a re-write to the
			// same page bumps the sequence number (handled below).
			seqs := d.wbSeqs[:0]
			for _, i := range group {
				d.slots[i].busy = true
				seqs = append(seqs, d.slots[i].seq)
			}
			d.wbSeqs = seqs
			d.hGroup.Observe(int64(len(group)))
			if d.dcd != nil {
				// DCD: destage to the log disk with a cheap sequential
				// write; the destage chain moves it to the data disk
				// later. Wait while the log is full (the DCD's own
				// back-pressure).
				d.wbAt = wbLogRoom
				continue
			}
			start := d.flt.RemapBlock(d.fltID, d.slots[group[0]].block)
			dur := d.seekTime(start) + d.rot + int64(len(group))*d.pageXfer
			d.wbT0, d.wbStart = d.e.Now(), start
			d.wbAt = wbWritten
			// Background write-back: low priority.
			if !d.wbMedia.start(sim.Low, dur, false, true) {
				return
			}
		case wbDwell:
			// Dwell briefly after waking from idle so a burst of
			// consecutive swap-outs can accumulate and be combined.
			d.wbAt = wbPick
			d.e.At(d.e.Now()+d.wbDwell, d.wbStep)
			return
		case wbLogRoom:
			if !d.dcd.hasRoom(len(d.wbGroup)) {
				d.dcd.room.WaitThen(d.wbStep)
				return
			}
			blocks := d.wbBlks[:0]
			for _, i := range d.wbGroup {
				blocks = append(blocks, d.slots[i].block)
			}
			d.wbBlks = blocks
			d.wbAt = wbLogged
			if !d.dcd.appendBatch(len(blocks), d.wbStep) {
				return
			}
		case wbLogged:
			d.dcd.logged(d.wbBlks)
			d.wbDone()
		case wbWritten:
			group := d.wbGroup
			d.tr.Span(d.track, "disk.write", d.wbT0, d.e.Now(), d.slots[group[0]].page)
			d.headPos = d.wbStart + int64(len(group))
			d.MediaWrite++
			d.Combining.Add(float64(len(group)))
			d.wbDone()
		}
	}
}

// wbDone retires the write group once it is on the media or the log, and
// lets waiting writers know room may have appeared.
func (d *Disk) wbDone() {
	for k, i := range d.wbGroup {
		d.slots[i].busy = false
		if d.slots[i].seq == d.wbSeqs[k] {
			d.slots[i].dirty = false // clean; still cached for reads
		}
		// else: overwritten mid-flight, stays dirty for another pass.
	}
	d.noteDirty()
	d.releaseNACKs()
	if d.OnRoom != nil {
		d.OnRoom()
	}
	d.wbAt = wbPick
}

// blockIdx pairs a cache slot index with its disk block (write-back sort).
type blockIdx struct {
	idx   int
	block int64
}

// pickWriteGroup chooses the dirty slots for the next media write: the
// oldest dirty slot plus every dirty slot whose block is consecutive with
// it (in either direction), written in one access. Returned indices are in
// ascending block order. The result is d.wbGroup, a scratch buffer valid
// until the next call.
func (d *Disk) pickWriteGroup() []int {
	oldest := -1
	for i := range d.slots {
		s := &d.slots[i]
		if s.valid && s.dirty && !s.busy && (oldest == -1 || s.seq < d.slots[oldest].seq) {
			oldest = i
		}
	}
	if oldest == -1 {
		d.wbGroup = d.wbGroup[:0]
		return nil
	}
	// Collect dirty slots in ascending block order (insertion sort: the
	// controller cache holds a handful of slots).
	dirty := d.wbDirty[:0]
	for i := range d.slots {
		if d.slots[i].valid && d.slots[i].dirty && !d.slots[i].busy {
			x := blockIdx{i, d.slots[i].block}
			k := len(dirty)
			dirty = append(dirty, x)
			for k > 0 && dirty[k-1].block > x.block {
				dirty[k] = dirty[k-1]
				k--
			}
			dirty[k] = x
		}
	}
	d.wbDirty = dirty[:0]
	// Find the maximal consecutive run containing `oldest`.
	pos := -1
	for k, x := range dirty {
		if x.idx == oldest {
			pos = k
			break
		}
	}
	lo, hi := pos, pos
	for lo > 0 && dirty[lo-1].block == dirty[lo].block-1 {
		lo--
	}
	for hi+1 < len(dirty) && dirty[hi+1].block == dirty[hi].block+1 {
		hi++
	}
	group := d.wbGroup[:0]
	for k := lo; k <= hi; k++ {
		group = append(group, dirty[k].idx)
	}
	d.wbGroup = group
	return group
}

// releaseNACKs sends OK for as many queued NACKs as there are slots able
// to receive a write, in FIFO order. Sending an OK does not reserve the
// slot (just as in the paper's protocol); a resent page that loses the
// race is simply NACKed again.
func (d *Disk) releaseNACKs() {
	if len(d.nackFIFO) == 0 {
		return
	}
	free := 0
	for i := range d.slots {
		s := &d.slots[i]
		if !s.valid || (!s.dirty && !s.busy) {
			free++
		}
	}
	n := free
	if n > len(d.nackFIFO) {
		n = len(d.nackFIFO)
	}
	if n == 0 {
		return
	}
	batch := append(d.nackBatch[:0], d.nackFIFO[:n]...)
	d.nackBatch = batch[:0]
	d.nackFIFO = append(d.nackFIFO[:0], d.nackFIFO[n:]...)
	if d.NotifyOK == nil {
		panic(fmt.Sprintf("disk %s: NACKed writes but NotifyOK unset", d.name))
	}
	for _, en := range batch {
		d.NotifyOK(en.Node, en.Page, en.Step)
	}
}

// Invalidate drops a clean cached copy of page (used when a victim read
// from the ring supersedes the disk copy path). Dirty slots are kept: the
// data must still reach the media. Returns true if a slot was dropped.
func (d *Disk) Invalidate(page PageID) bool {
	i := d.find(page)
	if i < 0 || d.slots[i].dirty {
		return false
	}
	d.slots[i] = slot{}
	return true
}

// ArmBusy exposes the mechanism's cumulative busy time.
func (d *Disk) ArmBusy() int64 { return d.arm.BusyTime() }
