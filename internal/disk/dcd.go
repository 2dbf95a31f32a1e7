package disk

import (
	"math"

	"nwcache/internal/sim"
)

// dcdLog implements the Disk Caching Disk of Hu & Yang (ISCA'96), the
// closest prior art the paper compares the NWCache against (§6): a log
// disk placed between the RAM controller cache and the data disk. Dirty
// pages are destaged from the controller cache to the log disk with
// cheap, sequential log writes (no seek: the log head stays at the tail),
// freeing cache slots far faster than data-disk writes would. A
// background chain later copies logged blocks to the data disk when the
// data mechanism is idle. Reading a logged block costs a full
// seek+rotation on the log mechanism, "comparable to those of accesses to
// the data disk" (§6).
type dcdLog struct {
	e        *sim.Engine
	d        *Disk         // the owning disk (its data mechanism)
	arm      *sim.Resource // the log disk mechanism
	rot      int64         // rotational latency
	seek     int64         // average seek for non-sequential log access
	xfer     int64         // per-page transfer time
	capacity int           // log capacity in blocks
	index    blockSet      // data blocks currently living in the log
	fifo     blockRing     // destage order
	room     *sim.Cond     // signaled when log space frees
	kick     *sim.Cond     // wakes the destage chain

	// The destage chain: the step to resume at, its pre-bound
	// continuation and data-disk access, and the segment in flight.
	at    uint8
	step  func()
	media mediaOp
	batch []int64
}

// newDCDLog builds the log disk and starts its destage chain against the
// owning disk's data mechanism.
func newDCDLog(e *sim.Engine, d *Disk, capacity int) *dcdLog {
	l := &dcdLog{
		e:        e,
		d:        d,
		arm:      sim.NewResource(e, d.name+".log"),
		rot:      d.rot,
		seek:     (d.minSeek + d.maxSeek) / 2,
		xfer:     d.pageXfer,
		capacity: capacity,
		room:     sim.NewCond(e),
		kick:     sim.NewCond(e),
	}
	l.step = l.destage
	l.media.bind(d, l.step)
	e.At(e.Now(), l.step)
	return l
}

// hasRoom reports whether n more blocks fit in the log.
func (l *dcdLog) hasRoom(n int) bool { return l.fifo.n+n <= l.capacity }

// appendBatch books a sequential write of n blocks at the log tail: one
// rotational settle plus the transfers — no seek, the log head never
// leaves the tail. It reports whether the write is already over;
// otherwise k runs when it is, and the caller then records the blocks
// with logged.
func (l *dcdLog) appendBatch(n int, k func()) bool {
	return reserveThen(l.e, l.arm, l.rot+int64(n)*l.xfer, k)
}

// logged records blocks as living in the log and wakes the destage chain.
func (l *dcdLog) logged(blocks []int64) {
	for _, b := range blocks {
		if l.index.add(b) {
			l.fifo.push(b)
		}
	}
	l.kick.Signal()
}

// contains reports whether a data block currently lives in the log.
func (l *dcdLog) contains(block int64) bool { return l.index.has(block) }

// readBlock books a demand read of a logged block, a random access on the
// log mechanism, and reports whether it is already over; otherwise k runs
// when it is.
func (l *dcdLog) readBlock(k func()) bool {
	return reserveThen(l.e, l.arm, l.seek+l.rot+l.xfer, k)
}

// destageBatch is how many blocks one destage operation moves.
const destageBatch = 8

// Destage steps (dcdLog.at).
const (
	dsIdle    uint8 = iota // wait for logged blocks and an idle data mechanism
	dsLogRead              // the segment is read off the log
	dsWritten              // the segment is on the data disk
)

// destage copies logged blocks to the data disk whenever the data
// mechanism is idle, in log (FIFO) order. It is a callback chain started
// at construction, resumed through l.step at step l.at.
func (l *dcdLog) destage() {
	d := l.d
	for {
		switch l.at {
		case dsIdle:
			if l.fifo.n == 0 {
				l.kick.WaitThen(l.step)
				return
			}
			// Only run while the data mechanism is otherwise idle, per
			// the DCD design; poll with a dwell so demand traffic goes
			// first.
			if !d.arm.idle(l.e.Now()) {
				l.e.At(l.e.Now()+d.wbDwell, l.step)
				return
			}
			n := destageBatch
			if n > l.fifo.n {
				n = l.fifo.n
			}
			l.batch = l.batch[:0]
			for i := 0; i < n; i++ {
				l.batch = append(l.batch, l.fifo.at(i))
			}
			// Read the segment from the log (sequential from the head).
			l.at = dsLogRead
			if !reserveThen(l.e, l.arm, l.rot+int64(n)*l.xfer, l.step) {
				return
			}
		case dsLogRead:
			// Write to the data disk: one seek+rotation for the batch,
			// then a transfer per block (blocks in a segment are rarely
			// contiguous on the data disk, but a single sweep covers a
			// batch reasonably).
			n := len(l.batch)
			l.at = dsWritten
			if !l.media.start(sim.Low, d.seekTime(l.batch[0])+d.rot+int64(n)*d.pageXfer, false, false) {
				return
			}
		case dsWritten:
			n := len(l.batch)
			d.headPos = l.batch[n-1]
			d.MediaWrite++
			d.Combining.Add(float64(n))
			l.fifo.pop(n)
			for _, b := range l.batch {
				l.index.remove(b)
			}
			l.room.Broadcast()
			l.at = dsIdle
		}
	}
}

// blockRing is a growable FIFO of block numbers in a power-of-two ring:
// popping advances the head instead of reslicing, so a steady log reuses
// one buffer for the whole run.
type blockRing struct {
	buf     []int64
	head, n int
}

// push appends b at the tail, doubling the buffer when it is full.
func (r *blockRing) push(b int64) {
	if r.n == len(r.buf) {
		buf := make([]int64, max(16, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			buf[i] = r.at(i)
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = b
	r.n++
}

// at returns the i-th block from the head.
func (r *blockRing) at(i int) int64 { return r.buf[(r.head+i)&(len(r.buf)-1)] }

// pop drops k blocks from the head.
func (r *blockRing) pop(k int) {
	r.head = (r.head + k) & (len(r.buf) - 1)
	r.n -= k
}

// noBlock marks an empty blockSet slot.
const noBlock = math.MinInt64

// blockSet is an open-addressed set of block numbers: linear probing in a
// power-of-two table kept at most half full, with backward-shift
// deletion, so membership changes allocate only when the table doubles.
type blockSet struct {
	slots []int64 // noBlock where empty
	n     int
}

// home returns b's preferred slot (Fibonacci hashing).
func (s *blockSet) home(b int64) int {
	return int((uint64(b)*0x9E3779B97F4A7C15)>>32) & (len(s.slots) - 1)
}

// find returns b's slot, or -1.
func (s *blockSet) find(b int64) int {
	if s.n == 0 {
		return -1
	}
	mask := len(s.slots) - 1
	for i := s.home(b); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case b:
			return i
		case noBlock:
			return -1
		}
	}
}

func (s *blockSet) has(b int64) bool { return s.find(b) >= 0 }

// add inserts b and reports whether it was absent.
func (s *blockSet) add(b int64) bool {
	if s.find(b) >= 0 {
		return false
	}
	if 2*(s.n+1) > len(s.slots) {
		old := s.slots
		s.slots = make([]int64, max(32, 2*len(old)))
		for i := range s.slots {
			s.slots[i] = noBlock
		}
		for _, v := range old {
			if v != noBlock {
				s.insert(v)
			}
		}
	}
	s.insert(b)
	s.n++
	return true
}

// insert places b, known absent, in the first free slot from its home.
func (s *blockSet) insert(b int64) {
	mask := len(s.slots) - 1
	i := s.home(b)
	for s.slots[i] != noBlock {
		i = (i + 1) & mask
	}
	s.slots[i] = b
}

// remove deletes b if present, shifting later members of its probe run
// back so no lookup ever has to skip a hole.
func (s *blockSet) remove(b int64) {
	i := s.find(b)
	if i < 0 {
		return
	}
	mask := len(s.slots) - 1
	for j := (i + 1) & mask; s.slots[j] != noBlock; j = (j + 1) & mask {
		// The member at j may fill the hole at i only if its home is not
		// cyclically within (i, j].
		k := s.home(s.slots[j])
		if (i < j && i < k && k <= j) || (i > j && (k > i || k <= j)) {
			continue
		}
		s.slots[i] = s.slots[j]
		i = j
	}
	s.slots[i] = noBlock
	s.n--
}
