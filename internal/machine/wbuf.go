package machine

// The coalescing write buffer of the paper's Figure 1 node diagram. Under
// Release Consistency a write miss need not stall the processor: it is
// queued in a small per-node buffer, coalesced with other pending writes
// to the same block, and drained in the background. The processor stalls
// only when the buffer is full, and release operations (barriers, lock
// releases) fence: they wait for the buffer to drain.
//
// The buffer covers coherence misses on *resident* pages only; a write to
// a non-resident page is a page fault and traps synchronously as usual.
// Enabled by Config.WriteBufferDepth > 0.

import (
	"fmt"
	"math"

	"nwcache/internal/coherence"
	"nwcache/internal/sim"
	"nwcache/internal/vm"
)

// maxWBPage bounds the page numbers whose packed block key fits in int64.
// Pages come from a dense bump allocator starting at 0, so real workloads
// sit many orders of magnitude below the bound; the check in wbKey makes
// the packing overflow-safe rather than silently aliasing blocks.
const maxWBPage = math.MaxInt64 / coherence.SubPerPage

// wbKey packs a block id. The caller's sub is in [0, SubPerPage).
func wbKey(page PageID, sub int) int64 {
	if page < 0 || page > maxWBPage {
		panic(fmt.Sprintf("machine: write-buffer page %d out of packable range", page))
	}
	return int64(page)*coherence.SubPerPage + int64(sub)
}

// writeBuffer is one node's coalescing write buffer: a fixed ring of
// packed block keys sized by the configured depth. The coalescing check
// scans the (small, bounded) ring instead of keeping a side map, so the
// enqueue/drain cycle allocates nothing.
type writeBuffer struct {
	m        *Machine
	n        *Node
	depth    int
	keys     []int64 // ring storage, len == depth
	head     int     // index of the oldest queued entry
	count    int     // queued entries
	inFly    bool    // an entry is being drained right now
	inFlyKey int64
	kick     *sim.Cond // work available
	room     *sim.Cond // slot freed
	empty    *sim.Cond // fully drained
	finish   bool      // the drain resumes with the in-flight write's ccFinish
	step     func()    // pre-bound drain

	Coalesced uint64
	Drained   uint64
	FullWaits uint64
}

// newWriteBuffer builds the buffer and starts its drain chain.
func newWriteBuffer(m *Machine, n *Node, depth int) *writeBuffer {
	wb := &writeBuffer{
		m:     m,
		n:     n,
		depth: depth,
		keys:  make([]int64, depth),
		kick:  sim.NewCond(m.E),
		room:  sim.NewCond(m.E),
		empty: sim.NewCond(m.E),
	}
	wb.step = wb.drain
	m.E.At(m.E.Now(), wb.step)
	return wb
}

// holdsKey reports whether a write to the packed block key is pending —
// queued or mid-drain (a drain holds its slot until it retires).
func (wb *writeBuffer) holdsKey(k int64) bool {
	if wb.inFly && wb.inFlyKey == k {
		return true
	}
	for i := 0; i < wb.count; i++ {
		if wb.keys[(wb.head+i)%wb.depth] == k {
			return true
		}
	}
	return false
}

// holds reports whether a write to the block is pending (read-after-write
// forwarding: the processor sees its own buffered writes).
func (wb *writeBuffer) holds(page PageID, sub int) bool {
	return wb.holdsKey(wbKey(page, sub))
}

// tryEnqueue adds a write without waiting: it coalesces with a pending
// write to the same block, or takes a free slot. ok is false, and nothing
// changes, when every slot is taken.
func (wb *writeBuffer) tryEnqueue(page PageID, sub int) (coalesced, ok bool) {
	k := wbKey(page, sub)
	if wb.holdsKey(k) {
		wb.Coalesced++
		return true, true
	}
	if wb.occupancy() >= wb.depth {
		return false, false
	}
	wb.keys[(wb.head+wb.count)%wb.depth] = k
	wb.count++
	wb.kick.Signal()
	return false, true
}

// occupancy counts queued plus in-flight writes (an entry being drained
// still holds its buffer slot).
func (wb *writeBuffer) occupancy() int {
	n := wb.count
	if wb.inFly {
		n++
	}
	return n
}

// drain retires buffered writes through the coherence protocol. It is a
// callback chain started at construction and resumed through wb.step.
func (wb *writeBuffer) drain() {
	m, n := wb.m, wb.n
	for {
		if wb.finish {
			wb.finish = false
			k := wb.inFlyKey
			m.ccFinish(n, PageID(k/coherence.SubPerPage), int(k%coherence.SubPerPage), true)
			wb.retire()
		}
		if wb.count == 0 {
			wb.kick.WaitThen(wb.step)
			return
		}
		k := wb.keys[wb.head]
		wb.head = (wb.head + 1) % wb.depth
		wb.count--
		wb.inFly = true
		wb.inFlyKey = k
		page, sub := PageID(k/coherence.SubPerPage), int(k%coherence.SubPerPage)
		// The page may have been swapped out since the write was
		// buffered; its frame-level dirtiness was recorded at issue time,
		// so the entry simply retires.
		if en, ok := m.Table.Lookup(page); ok && en.State == vm.Resident {
			wb.finish = true
			if t := m.ccStart(n, en.Owner, page, sub, true); t > m.E.Now() {
				m.E.At(t, wb.step)
				return
			}
			continue
		}
		wb.retire()
	}
}

// retire frees the in-flight write's slot.
func (wb *writeBuffer) retire() {
	wb.Drained++
	wb.inFly = false
	wb.room.Signal()
	if wb.count == 0 {
		wb.empty.Broadcast()
	}
}
