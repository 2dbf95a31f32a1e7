package machine

import (
	"nwcache/internal/fault"
	"nwcache/internal/optical"
	"nwcache/internal/vm"
)

// AttachFaults wires a fault injector into every layer of the machine:
// the mesh (link flaps), each disk (transient errors, bad blocks,
// degraded windows), each NWCache interface (drain corruption), and the
// machine's own swap protocol (ring outages, recovery policy). Crash
// events from the plan are scheduled as simulation events. Call once,
// after New and before Observe/Run; a nil injector is a no-op, leaving
// the machine byte-identical to an unfaulted build.
func (m *Machine) AttachFaults(inj *fault.Injector) {
	if inj == nil {
		return
	}
	m.flt = inj
	m.Mesh.SetFaults(inj)
	for i, ioNode := range m.Layout.IONodes() {
		m.Disks[ioNode].SetFaults(inj, i)
		if f := m.Ifaces[ioNode]; f != nil {
			f.SetFaults(inj)
		}
	}
	for _, c := range inj.Plan().Crashes {
		c := c
		m.E.At(c.At, func() { m.crashIONode(c.Node) })
	}
}

// conservative reports whether the conservative recovery policy governs
// swap-outs (frame held until the disk ACKs the drained page).
func (m *Machine) conservative() bool {
	return m.flt != nil && m.flt.Policy == fault.Conservative
}

// crashIONode models an I/O-node crash: every page still circulating on
// the ring whose disk lives at the crashed node is voided — the
// interface that would have drained it is gone, so its fiber copy is
// dropped without an ACK. Under the aggressive policy the swapping node
// already freed the frame, so the page's only up-to-date copy is lost
// and it reverts to its stale disk image; under the conservative policy
// the swapper still holds the frame and resends over the mesh
// (its swap job observes the voided entry). Pages mid-extraction
// (Claimed/Draining) ride out the crash: their bits already left the
// fiber.
func (m *Machine) crashIONode(node int) {
	m.flt.NoteCrash()
	if m.Ring == nil || node < 0 || node >= len(m.Nodes) {
		return
	}
	now := m.E.Now()
	for ci := 0; ci < m.Ring.Channels(); ci++ {
		entries := append([]*optical.Entry(nil), m.Ring.Channel(ci).Entries()...)
		for _, en := range entries {
			if en.State != optical.OnRing || m.Layout.NodeFor(en.Page) != node {
				continue
			}
			en.Voided = true
			m.flt.NoteVoided(now, en.InsertedAt)
			owner, ref := m.Ring.OwnerOf(en.Channel), en.Ref()
			m.Ring.Release(en)
			if pte, ok := m.Table.Lookup(en.Page); ok &&
				pte.State == vm.OnRing && pte.RingEntry == ref &&
				m.flt.Policy == fault.Aggressive {
				// The only up-to-date copy is gone; the page falls back
				// to the stale image on disk. This is the data loss the
				// conservative policy exists to prevent.
				m.flt.NoteLost()
				pte.State = vm.Unmapped
				pte.Owner = -1
				pte.RingEntry = optical.Ref{}
				pte.Dirty = false
				pte.Arrived.Broadcast()
			}
			// Wake swap-outs stalled on channel room and, under the
			// conservative policy, the swapper holding this page's frame.
			m.Nodes[owner].chanRoom.Broadcast()
		}
	}
}
