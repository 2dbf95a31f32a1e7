package machine

// This file holds the residency protocol (the heart of the fault path).
// It lives separately from the Ctx plumbing in access.go for readability.

import (
	"nwcache/internal/disk"
	"nwcache/internal/optical"
	"nwcache/internal/sim"
	"nwcache/internal/stats"
	"nwcache/internal/trace"
	"nwcache/internal/vm"
)

// ensureResident drives the page through the fault protocol until it is
// Resident somewhere, returning the owning node. Charges NoFree, Transit,
// Fault and (implicitly, via the remainder) Other to n's CPU.
//
// Frame reservation happens BEFORE any page-table claim is made: a fault
// that stalls in NoFree while holding a claim on a ring entry would
// deadlock against its own node's swap-outs (the frame it waits for can
// only be freed by a swap-out, which may be waiting for the channel slot
// occupied by the very entry the fault claimed). Reserving first breaks
// the cycle; if the world changes while stalled, the reservation is
// returned and the state machine re-evaluates.
func (m *Machine) ensureResident(p *sim.Proc, n *Node, en *vm.Entry) (owner int) {
	lockT0 := p.Now()
	en.Lock.Lock(p)
	n.charge(stats.Fault, p.Now()-lockT0)
	return m.ensureResidentLocked(p, n, en)
}

// ensureResidentLocked is ensureResident entered with the entry lock
// already held.
func (m *Machine) ensureResidentLocked(p *sim.Proc, n *Node, en *vm.Entry) (owner int) {
	reserved := false
	unreserve := func() {
		if reserved {
			n.Pool.Unreserve()
			reserved = false
		}
	}
	for {
		switch en.State {
		case vm.Resident:
			owner = en.Owner
			unreserve()
			en.Lock.Unlock()
			return owner

		case vm.Transit:
			// TransitBy >= 0: another node is fetching the page (the
			// paper's Transit category). TransitBy < 0: the page is being
			// swapped out; waiting for that is fault-path overhead.
			cat := stats.Transit
			if en.TransitBy < 0 {
				cat = stats.Fault
			}
			en.Lock.Unlock()
			t0 := p.Now()
			en.Arrived.Wait(p)
			n.charge(cat, p.Now()-t0)
			m.emit(trace.FaultWait, n.ID, en.Page, p.Now()-t0)
			lockT0 := p.Now()
			en.Lock.Lock(p)
			n.charge(stats.Fault, p.Now()-lockT0)

		case vm.OnRing, vm.Unmapped:
			// A fault is needed: hold a frame reservation before claiming
			// anything, re-checking the state afterwards (it may have
			// changed while stalled in NoFree).
			if !reserved {
				en.Lock.Unlock()
				m.allocFrame(p, n)
				reserved = true
				lockT0 := p.Now()
				en.Lock.Lock(p)
				n.charge(stats.Fault, p.Now()-lockT0)
				continue
			}
			if en.State == vm.OnRing {
				if done := m.faultFromRing(p, n, en); done {
					return n.ID
				}
				continue // ring entry was in flux; state re-evaluated
			}
			m.faultFromDisk(p, n, en)
			return n.ID
		}
	}
}

// faultFromRing serves a fault for a page stored on the optical ring
// (entry lock held, frame reserved). Returns false if the ring entry was
// in an in-flight state and the caller must re-evaluate.
func (m *Machine) faultFromRing(p *sim.Proc, n *Node, en *vm.Entry) bool {
	ringEn := en.RingEntry
	switch ringEn.State {
	case optical.OnRing:
		// Victim caching: claim the page and snoop it straight off the
		// cache channel — no disk, no mesh page transfer.
		ringEn.State = optical.Claimed
		en.State = vm.Transit
		en.TransitBy = n.ID
		en.Lock.Unlock()
		m.emit(trace.FaultStart, n.ID, en.Page, 0)
		t0 := p.Now()
		m.ringReadInto(p, n, ringEn)
		// Tell the responsible I/O node's interface the page must not go
		// to disk; it dequeues the notice and ACKs the swapper
		// (asynchronously).
		dn := m.Layout.NodeFor(en.Page)
		arrive := m.Mesh.Transit(p.Now(), n.ID, dn, m.Cfg.CtrlMsgLen)
		g := m.takeMsg()
		g.kind, g.to, g.en = msgCancel, dn, ringEn
		m.E.At(arrive, g.run)
		n.charge(stats.Fault, p.Now()-t0)
		m.emit(trace.RingVictim, n.ID, en.Page, 0)
		m.emit(trace.FaultRing, n.ID, en.Page, p.Now()-t0)
		m.hFaultRing.Observe(p.Now() - t0)
		m.Spans.Span(m.cpuTrack(n.ID), "fault.ring", t0, p.Now())
		m.finishFault(p, n, en, true /*dirty: disk never got it*/)
		n.Faults++
		n.RingHits++
		m.Ring.NoteVictim(ringEn.Channel)
		return true

	case optical.Draining:
		// The interface is already copying it to the disk cache; ride
		// along the broadcast medium and keep the memory copy clean (the
		// disk is receiving an identical copy).
		en.State = vm.Transit
		en.TransitBy = n.ID
		en.Lock.Unlock()
		m.emit(trace.FaultStart, n.ID, en.Page, 0)
		t0 := p.Now()
		m.ringReadInto(p, n, ringEn)
		n.charge(stats.Fault, p.Now()-t0)
		m.emit(trace.FaultRing, n.ID, en.Page, p.Now()-t0)
		m.hFaultRing.Observe(p.Now() - t0)
		m.Spans.Span(m.cpuTrack(n.ID), "fault.ring", t0, p.Now())
		m.finishFault(p, n, en, false)
		n.Faults++
		n.RingHits++
		m.Ring.NoteVictim(ringEn.Channel)
		return true

	default:
		// Claimed/Gone are unobservable under the entry lock; if they
		// ever appear, wait out the in-flight transition and re-evaluate.
		en.Lock.Unlock()
		t0 := p.Now()
		en.Arrived.Wait(p)
		n.charge(stats.Transit, p.Now()-t0)
		lockT0 := p.Now()
		en.Lock.Lock(p)
		n.charge(stats.Fault, p.Now()-lockT0)
		return false
	}
}

// faultFromDisk serves a fault for an unmapped page from its disk (entry
// lock held, frame reserved).
func (m *Machine) faultFromDisk(p *sim.Proc, n *Node, en *vm.Entry) {
	en.State = vm.Transit
	en.TransitBy = n.ID
	en.Lock.Unlock()
	m.emit(trace.FaultStart, n.ID, en.Page, 0)
	t0 := p.Now()
	outcome := m.diskReadInto(p, n, en.Page)
	d := p.Now() - t0
	n.charge(stats.Fault, d)
	m.emit(trace.FaultDisk, n.ID, en.Page, d)
	m.hFaultDisk.Observe(d)
	m.Spans.Span(m.cpuTrack(n.ID), "fault.disk", t0, p.Now())
	if outcome.Hit() {
		n.DiskHits++
		// Table 8 measures the latency of faults served straight from the
		// controller cache; in-flight prefetch waits are partial media
		// waits and are excluded.
		if outcome == disk.HitCache {
			n.FaultHitLat.Add(float64(d))
		}
	} else {
		n.DiskMisses++
	}
	m.finishFault(p, n, en, false)
	n.Faults++
}
