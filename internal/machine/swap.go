package machine

import (
	"nwcache/internal/disk"
	"nwcache/internal/optical"
	"nwcache/internal/sim"
	"nwcache/internal/vm"
)

// replaceStep is where a node's replacement daemon resumes.
type replaceStep uint8

const (
	rpScan  replaceStep = iota // look for a victim
	rpLock                     // lock the victim's entry
	rpIssue                    // take a swap-out permit and issue the swap-out
)

// replace is one node's page-replacement daemon: whenever the free frame
// count sinks to the OS floor, it picks LRU victims and either frees them
// (clean) or starts swap-outs (dirty), with a bounded number of swap-outs
// outstanding. Like a swap-out, it is a callback chain (see MODEL.md,
// "Continuation waiters"): started at t=0, resumed through
// n.replaceK, with n.rp naming the step to resume at.
func (m *Machine) replace(n *Node) {
	for {
		switch n.rp {
		case rpScan:
			if !n.Pool.BelowFloor() {
				n.Pool.Pressure.WaitThen(n.replaceK)
				return
			}
			page, ok := n.Pool.VictimLRU()
			if !ok {
				// Every frame is reserved or detached; wait for change.
				n.Pool.FrameFreed.WaitThen(n.replaceK)
				return
			}
			n.rpEn, n.rp = m.Table.Get(page), rpLock
		case rpLock:
			en, page := n.rpEn, n.rpEn.Page
			if !en.Lock.TryLock() {
				en.Lock.WaitThen(n.replaceK)
				return
			}
			n.rp = rpScan
			if en.State != vm.Resident || en.Owner != n.ID || !n.Pool.Contains(page) {
				en.Lock.Unlock() // raced with a concurrent transition; retry
				continue
			}
			// Access rights are being downgraded: machine-wide TLB shootdown.
			m.shootdown(n, page)
			if !en.Dirty {
				n.Pool.Remove(page)
				en.State = vm.Unmapped
				en.Owner = -1
				en.Arrived.Broadcast()
				en.Lock.Unlock()
				n.CleanEvicts++
				m.Spans.Instant(m.swapTrack(n.ID), "clean.evict", m.E.Now(), page)
				m.invalidateCaches(page)
				continue
			}
			// Dirty: detach the frame (data still in it until taken) and
			// mark the page in transit so faulters wait out the swap.
			n.Pool.Unmap(page)
			en.State = vm.Transit
			en.TransitBy = -1
			en.LastSwapper = n.ID
			en.Owner = -1
			en.Lock.Unlock()
			m.invalidateCaches(page)
			n.SwapOuts++
			j := n.takeJob(m)
			j.en, j.start, j.at = en, m.E.Now(), sjSend // Standard: straight to the mesh
			if m.Kind == NWCache {
				j.at = sjStart
			}
			n.rpJob, n.rp = j, rpIssue
		case rpIssue:
			if !n.swapSem.TryAcquire() { // bound outstanding swap-outs
				n.swapSem.WaitThen(n.replaceK)
				return
			}
			m.E.At(m.E.Now(), n.rpJob.step)
			n.rpEn, n.rpJob, n.rp = nil, nil, rpScan
		}
	}
}

// swapStep is where a swap-out resumes.
type swapStep uint8

const (
	sjStart    swapStep = iota // NWCache: take the transmitter
	sjTx                       // holds the transmitter: outage check, room wait
	sjModulate                 // crossed the local buses: modulate onto the fiber
	sjInserted                 // modulated: the page enters the channel
	sjOnRing                   // lock the entry and mark the page OnRing
	sjHold                     // conservative: hold the frame until the copy is gone
	sjSend                     // stream the page over the mesh to its disk
	sjCtrl                     // page at the disk's I/O bus: book the controller
	sjAnswer                   // the controller answers ACK or NACK
	sjOK                       // NACKed, and the disk's OK arrived: resend
	sjAcked                    // the final ACK crossed back over the mesh
	sjOnDisk                   // lock the entry and mark the page on disk
)

// swapJob is one swap-out in flight: a callback chain, pooled per node
// with its step pre-bound, that serves the NWCache ring path, the Standard
// mesh path with its NACK → OK resend, the mesh fallback under a ring
// outage, and conservative recovery.
type swapJob struct {
	m     *Machine
	n     *Node
	en    *vm.Entry
	start sim.Time
	at    swapStep
	entry optical.Ref // the ring copy; on the mesh path, set only for a conservative resend
	t0    sim.Time    // start of a conservative resend
	step  func()      // pre-bound run
}

// takeJob pops a pooled swap job, or builds one with its step bound.
func (n *Node) takeJob(m *Machine) *swapJob {
	if k := len(n.swapJobs); k > 0 {
		j := n.swapJobs[k-1]
		n.swapJobs = n.swapJobs[:k-1]
		return j
	}
	j := &swapJob{m: m, n: n}
	j.step = j.run
	return j
}

// run advances the swap-out until it must wait or is done. A wait until a
// time not in the future runs on at once, scheduling nothing.
func (j *swapJob) run() {
	m, n, en, page := j.m, j.n, j.en, j.en.Page
	for {
		switch j.at {
		case sjStart:
			// Transmitters are serialized per node (ringTx covers all of
			// the node's channels; with the OTDM extension a node owns
			// several, and Insert picks the first with room).
			if !n.ringTx.TryLock() {
				n.ringTx.WaitThen(j.step)
				return
			}
			j.at = sjTx
		case sjTx:
			if m.flt.RingTxDown(n.ID, m.E.Now()) {
				// Injected whole-channel outage: the transmitter is dark,
				// so this swap-out falls back to the standard mesh path.
				n.ringTx.Unlock()
				m.flt.NoteOutageFallback()
				j.at = sjSend
				continue
			}
			if !m.Ring.HasRoomFor(n.ID) {
				n.chanRoom.WaitThen(j.step)
				return
			}
			stages := append(n.stageBuf[:0],
				sim.Stage{Res: n.MemBus, Occupy: m.pageMemBus, Forward: m.Cfg.HopLatency},
				sim.Stage{Res: n.IOBus, Occupy: m.pageIOBus},
			)
			_, arrive := sim.Pipeline(m.E.Now(), stages)
			n.stageBuf = stages[:0]
			j.at = sjModulate
			if arrive > m.E.Now() {
				m.E.At(arrive, j.step)
				return
			}
		case sjModulate:
			j.at = sjInserted
			m.E.At(m.E.Now()+m.pageRing, j.step) // onto the writable channel
			return
		case sjInserted:
			j.entry = m.Ring.Insert(n.ID, page).Ref()
			n.ringTx.Unlock()
			m.flt.NoteRingInsert(m.E.Now())
			m.Spans.Instant(m.swapTrack(n.ID), "ring.insert", m.E.Now(), page)
			if !m.conservative() {
				// The frame is reusable right away — the page now lives
				// on the ring.
				j.release("swap.ring")
			}
			j.at = sjOnRing
		case sjOnRing:
			if !en.Lock.TryLock() {
				en.Lock.WaitThen(j.step)
				return
			}
			en.State = vm.OnRing
			en.RingEntry = j.entry
			en.Owner = -1
			en.LastSwapper = n.ID
			en.Dirty = true // the disk has not seen this data yet
			en.Arrived.Broadcast()
			en.Lock.Unlock()
			// Notice to the I/O node responsible for the page.
			_, dn := m.DiskFor(page)
			noticeArrive := m.Mesh.Transit(m.E.Now(), n.ID, dn, m.Cfg.CtrlMsgLen)
			g := m.takeMsg()
			g.kind, g.to, g.en = msgNotify, dn, j.entry
			m.E.At(noticeArrive, g.run)
			if !m.conservative() {
				j.finish()
				return
			}
			j.at = sjHold
		case sjHold:
			// Conservative recovery: hold the frame until the page is off
			// the ring (deliverRingACK and crashIONode broadcast chanRoom),
			// and resend a crash-voided page from it — zero data loss.
			if j.entry.State() != optical.Gone {
				n.chanRoom.WaitThen(j.step)
				return
			}
			if !j.entry.Voided() {
				j.release("swap.ring")
				j.finish()
				return
			}
			j.t0 = m.E.Now()
			j.at = sjSend
		case sjSend:
			j.at = sjCtrl
			if arrive := m.sendPage(n, page); arrive > m.E.Now() {
				m.E.At(arrive, j.step)
				return
			}
		case sjCtrl:
			d, _ := m.DiskFor(page)
			j.at = sjAnswer
			if t := d.BookWrite(); t > m.E.Now() {
				m.E.At(t, j.step)
				return
			}
		case sjAnswer:
			d, dn := m.DiskFor(page)
			if d.AnswerWrite(n.ID, page, m.Layout.BlockFor(page), j.step) == disk.NACK {
				// The controller recorded our step; its OK message runs it.
				m.Spans.Instant(m.swapTrack(n.ID), "disk.nack", m.E.Now(), page)
				j.at = sjOK
				return
			}
			// ACK message back across the mesh; the frame is reusable on
			// receipt.
			j.at = sjAcked
			if t := m.Mesh.Transit(m.E.Now(), dn, n.ID, m.Cfg.CtrlMsgLen); t > m.E.Now() {
				m.E.At(t, j.step)
				return
			}
		case sjOK:
			m.Spans.Instant(m.swapTrack(n.ID), "disk.ok", m.E.Now(), page)
			j.at = sjSend
		case sjAcked:
			if j.entry != (optical.Ref{}) {
				m.flt.NoteRecovered(m.E.Now() - j.t0)
			} else {
				j.release("swap.disk")
			}
			j.at = sjOnDisk
		case sjOnDisk:
			if !en.Lock.TryLock() {
				en.Lock.WaitThen(j.step)
				return
			}
			// A resent ring copy is superseded only if the page still
			// points at it.
			if j.entry == (optical.Ref{}) || (en.State == vm.OnRing && en.RingEntry == j.entry) {
				en.State = vm.Unmapped
				en.Owner = -1
				en.RingEntry = optical.Ref{}
				en.Dirty = false
				en.Arrived.Broadcast()
			}
			en.Lock.Unlock()
			if j.entry != (optical.Ref{}) {
				j.release("swap.ring")
			}
			j.finish()
			return
		}
	}
}

// release frees the swapped page's frame and records the swap-out time
// under span.
func (j *swapJob) release(span string) {
	m, n := j.m, j.n
	n.Pool.ReleaseFrame()
	now := m.E.Now()
	dur := now - j.start
	n.SwapTime.Add(float64(dur))
	m.hSwap.Observe(dur)
	m.Spans.Span(m.swapTrack(n.ID), span, j.start, now, j.en.Page)
}

// finish returns the swap-out's permit and the job to its node's pool.
func (j *swapJob) finish() {
	j.n.swapSem.Release()
	j.en, j.entry = nil, optical.Ref{}
	j.n.swapJobs = append(j.n.swapJobs, j)
}

// shootdown models the paper's TLB-shootdown: the initiating processor
// runs the downgrade (ShootLat) and every other processor takes an
// interrupt (InterruptLat) and deletes its translation. Costs are charged
// to each CPU at its next operation.
func (m *Machine) shootdown(initiator *Node, page PageID) {
	initiator.TLB.Invalidate(page)
	initiator.pendingIntr += m.Cfg.TLBShootLat
	for _, other := range m.Nodes {
		if other == initiator {
			continue
		}
		other.TLB.Invalidate(page)
		other.pendingIntr += m.Cfg.InterruptLat
	}
}

// invalidateCaches drops every node's cached blocks and the directory
// state for a page that left memory (cached data must not outlive its
// page frame; the TLB shootdown's interrupts carry the cost).
func (m *Machine) invalidateCaches(page PageID) {
	for _, n := range m.Nodes {
		n.CC.DropPage(page)
	}
	m.Dir.DropPage(page)
}
