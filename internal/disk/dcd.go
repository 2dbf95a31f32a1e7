package disk

import (
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
	d        *Disk          // the owning disk (its data mechanism)
	arm      *sim.Resource  // the log disk mechanism
	rot      int64          // rotational latency
	seek     int64          // average seek for non-sequential log access
	xfer     int64          // per-page transfer time
	capacity int            // log capacity in blocks
	index    map[int64]bool // data blocks currently living in the log
	fifo     []int64        // destage order
	room     *sim.Cond      // signaled when log space frees
	kick     *sim.Cond      // wakes the destage chain

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
		index:    make(map[int64]bool),
		room:     sim.NewCond(e),
		kick:     sim.NewCond(e),
	}
	l.step = l.destage
	l.media.bind(d, l.step)
	e.At(e.Now(), l.step)
	return l
}

// hasRoom reports whether n more blocks fit in the log.
func (l *dcdLog) hasRoom(n int) bool { return len(l.fifo)+n <= l.capacity }

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
		if !l.index[b] {
			l.index[b] = true
			l.fifo = append(l.fifo, b)
		}
	}
	l.kick.Signal()
}

// contains reports whether a data block currently lives in the log.
func (l *dcdLog) contains(block int64) bool { return l.index[block] }

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
			if len(l.fifo) == 0 {
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
			if n > len(l.fifo) {
				n = len(l.fifo)
			}
			l.batch = append(l.batch[:0], l.fifo[:n]...)
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
			l.fifo = l.fifo[n:]
			for _, b := range l.batch {
				delete(l.index, b)
			}
			l.room.Broadcast()
			l.at = dsIdle
		}
	}
}
