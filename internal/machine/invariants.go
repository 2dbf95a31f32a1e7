package machine

import (
	"fmt"

	"nwcache/internal/optical"
	"nwcache/internal/vm"
)

// CheckInvariants validates cross-module consistency. It is meant to be
// called after a run has drained (but is safe at any quiescent point) and
// returns the first violation found:
//
//   - single-copy: a page is Resident in exactly the pool of its owner,
//     and in no pool otherwise (the paper's coherence argument: at most
//     one copy beyond the disk controller's boundary);
//   - ring linkage: every OnRing page references a live ring entry on its
//     LastSwapper's channel, and every live ring entry is referenced by
//     exactly one OnRing page;
//   - frame conservation: free + resident <= total per node (reserved or
//     detached frames account for the difference, never negative);
//   - quiescence (post-run): no Transit pages, no dirty or NACK-pending
//     controller state left behind.
func (m *Machine) CheckInvariants(postRun bool) error {
	// Residency vs pools.
	for page := PageID(0); ; page++ {
		en, ok := m.Table.Lookup(page)
		if !ok {
			// Pages are allocated densely from 0 by the workloads; stop at
			// the first gap past which nothing was ever touched.
			break
		}
		holders := 0
		for _, n := range m.Nodes {
			if n.Pool.Contains(page) {
				holders++
				if en.State != vm.Resident || en.Owner != n.ID {
					return fmt.Errorf("page %d in node %d pool but table says %v owner %d",
						page, n.ID, en.State, en.Owner)
				}
			}
		}
		switch en.State {
		case vm.Resident:
			if holders != 1 {
				return fmt.Errorf("page %d Resident with %d pool holders", page, holders)
			}
		default:
			if holders != 0 {
				return fmt.Errorf("page %d %v but held by %d pools", page, en.State, holders)
			}
		}
		if en.State == vm.OnRing {
			if m.Ring == nil {
				return fmt.Errorf("page %d OnRing on a standard machine", page)
			}
			if en.RingEntry == (optical.Ref{}) {
				return fmt.Errorf("page %d OnRing without ring entry", page)
			}
			if found := m.Ring.FindOnChannel(en.LastSwapper, page); found == nil || found.Ref() != en.RingEntry {
				return fmt.Errorf("page %d ring entry not live on channel %d", page, en.LastSwapper)
			}
		}
		if postRun && en.State == vm.Transit {
			return fmt.Errorf("page %d still Transit after run", page)
		}
	}
	// Every live ring entry maps back to an OnRing page (cross-check via
	// the aggregate counts; per-entry identity was checked above).
	if m.Ring != nil {
		onRing := 0
		for page := PageID(0); ; page++ {
			en, ok := m.Table.Lookup(page)
			if !ok {
				break
			}
			if en.State == vm.OnRing {
				onRing++
			}
		}
		if postRun && m.Ring.TotalUsed() != onRing {
			return fmt.Errorf("ring holds %d pages but table records %d OnRing",
				m.Ring.TotalUsed(), onRing)
		}
	}
	// Frame conservation: every frame is free, resident, reserved, or
	// detached — the pool tracks each bucket explicitly.
	for _, n := range m.Nodes {
		sum := n.Pool.Free() + n.Pool.Resident() + n.Pool.Reserved() + n.Pool.Detached()
		if sum != n.Pool.Total() {
			return fmt.Errorf("node %d: free %d + resident %d + reserved %d + detached %d != %d frames",
				n.ID, n.Pool.Free(), n.Pool.Resident(), n.Pool.Reserved(), n.Pool.Detached(), n.Pool.Total())
		}
		if postRun && (n.Pool.Reserved() != 0 || n.Pool.Detached() != 0) {
			return fmt.Errorf("node %d: %d reserved + %d detached frames leaked after run",
				n.ID, n.Pool.Reserved(), n.Pool.Detached())
		}
	}
	// Controller quiescence.
	if postRun {
		for node, d := range m.Disks {
			if d == nil {
				continue
			}
			if d.DirtySlots() != 0 {
				return fmt.Errorf("disk@%d: %d dirty slots after run", node, d.DirtySlots())
			}
			if d.PendingNACKs() != 0 {
				return fmt.Errorf("disk@%d: %d NACKs never released", node, d.PendingNACKs())
			}
			if d.DCDLogged() != 0 {
				return fmt.Errorf("disk@%d: %d blocks stranded in the DCD log", node, d.DCDLogged())
			}
		}
		for node, f := range m.Ifaces {
			if f == nil {
				continue
			}
			if f.Pending() != 0 {
				return fmt.Errorf("iface@%d: %d notices never drained", node, f.Pending())
			}
		}
	}
	return nil
}
