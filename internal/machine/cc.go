package machine

// Directory-based coherence glue: prices the traffic of each MSI
// transaction (internal/coherence decides *what* must happen; this file
// decides *how long* it takes) using the mesh and memory-bus models.
//
// The base machine uses Release Consistency (§4), so writes do not stall
// for invalidation acknowledgements: invalidations are sent (and charged
// to the mesh as traffic) but the writer proceeds as soon as it has the
// data or ownership. Reads wait for their data.

import (
	"nwcache/internal/coherence"
	"nwcache/internal/sim"
	"nwcache/internal/vm"
)

// BlockBytes is the coherence unit (one sub-page).
const BlockBytes = 4096 / coherence.SubPerPage

// ccStart runs the directory transaction for one block access and returns
// the time the access can architecturally proceed, when ccFinish
// completes it.
func (m *Machine) ccStart(n *Node, home int, page PageID, sub int, write bool) sim.Time {
	var txn coherence.Txn
	if write {
		txn = m.Dir.Write(page, sub, n.ID)
	} else {
		txn = m.Dir.Read(page, sub, n.ID)
	}
	now := m.E.Now()
	dataArrive := now

	switch {
	case txn.FetchFrom >= 0 && txn.FetchFrom != n.ID:
		// Dirty copy in a third cache: request to home, forward to the
		// owner, cache-to-cache data to the requester (the DASH 3-hop).
		owner := txn.FetchFrom
		a := now
		if home != n.ID {
			a = m.Mesh.Transit(now, n.ID, home, m.Cfg.CtrlMsgLen)
		}
		a = m.Mesh.Transit(a, home, owner, m.Cfg.CtrlMsgLen)
		dataArrive = m.Mesh.Transit(a, owner, n.ID, BlockBytes)
		if !write {
			// Sharing write-back: the dirty data also returns to the home
			// memory (asynchronously; the requester does not wait).
			wb := m.Mesh.Transit(a, owner, home, BlockBytes)
			m.Nodes[home].MemBus.Reserve(wb, m.blockMemBus)
		}

	case txn.MemoryData:
		memDur := m.blockMemBus
		if home == n.ID {
			start := n.MemBus.Reserve(now, memDur)
			dataArrive = start + memDur
		} else {
			a := m.Mesh.Transit(now, n.ID, home, m.Cfg.CtrlMsgLen)
			stages := append(n.stageBuf[:0], sim.Stage{
				Res: m.Nodes[home].MemBus, Occupy: memDur, Forward: m.Cfg.HopLatency,
			})
			stages = m.Mesh.AppendPathStages(stages, home, n.ID, BlockBytes)
			_, dataArrive = sim.Pipeline(a, stages)
			n.stageBuf = stages[:0]
		}

	default:
		// Ownership upgrade: no data moves; a remote home costs a
		// round-trip of control messages.
		if home != n.ID {
			a := m.Mesh.Transit(now, n.ID, home, m.Cfg.CtrlMsgLen)
			dataArrive = m.Mesh.Transit(a, home, n.ID, m.Cfg.CtrlMsgLen)
		}
	}

	// Invalidations fan out from the home; under Release Consistency the
	// writer does not wait for the acknowledgements, but the messages are
	// real mesh traffic and the victim caches drop their copies.
	for _, s := range txn.Invalidate {
		m.Nodes[s].CC.Drop(page, sub)
		m.Mesh.Transit(now, home, s, m.Cfg.CtrlMsgLen)
	}

	if home == n.ID && txn.FetchFrom < 0 && len(txn.Invalidate) == 0 {
		n.LocalAccs++
	} else {
		n.RemoteAccs++
	}

	return dataArrive
}

// ccFinish caches the block that ccStart's transaction brought in.
func (m *Machine) ccFinish(n *Node, page PageID, sub int, write bool) {
	st := coherence.Shared
	if write {
		st = coherence.Modified
	}
	if ev, evicted := n.CC.Insert(page, sub, st); evicted {
		m.ccEvict(m.E.Now(), n, ev)
	}
	// The page may have been evicted from memory while this transaction
	// was in flight (its shootdown already invalidated the caches); a
	// block cached after that fact would be stale, so drop it again.
	if en, ok := m.Table.Lookup(page); !ok || en.State != vm.Resident {
		n.CC.Drop(page, sub)
		m.Dir.DropPage(page)
	}
}

// ccEvict settles a block pushed out of a cache: Shared copies drop
// silently; Modified copies stream back to the home memory
// (asynchronously — eviction write-backs are off the critical path).
func (m *Machine) ccEvict(now sim.Time, n *Node, ev coherence.Evicted) {
	en, ok := m.Table.Lookup(ev.Page)
	if !ok || en.State != vm.Resident {
		// The page itself already left memory; the directory entry was
		// cleared by the page eviction.
		return
	}
	home := en.Owner
	if ev.Modified {
		m.Dir.EvictModified(ev.Page, ev.Sub, n.ID)
		arrive := now
		if home != n.ID {
			arrive = m.Mesh.Transit(now, n.ID, home, BlockBytes)
		}
		m.Nodes[home].MemBus.Reserve(arrive, m.blockMemBus)
	} else {
		m.Dir.EvictShared(ev.Page, ev.Sub, n.ID)
	}
}
