package machine

// Explicit-I/O programming model: the alternative the paper's introduction
// argues against. Instead of mmapping data and letting the VM system page
// it, the application calls read()/write() explicitly, paying
//
//   - a system-call overhead per operation,
//   - the disk access (same controllers, same protocol), and
//   - a data copy between system and user buffers across the memory bus
//     (the copy overhead the paper calls out explicitly: "I/O system
//     calls involve data copying overheads from user to system-level
//     buffers and vice-versa").
//
// File pages occupy the same striped block space as VM pages but are
// never mapped into page frames: the application supplies its own
// (resident) buffers. Used by examples/explicit-io to reproduce the
// intro's motivation quantitatively.

import (
	"nwcache/internal/disk"
	"nwcache/internal/param"
	"nwcache/internal/sim"
	"nwcache/internal/stats"
)

// FileRead reads `pages` consecutive file pages starting at `page` into a
// user buffer: per page a syscall, the disk read protocol, and a
// kernel-to-user copy on the local memory bus.
func (c *Ctx) FileRead(page PageID, pages int) {
	if c.rec != nil {
		c.rec(OpEvent{Kind: OpFileRead, Page: page, Pages: pages})
		return
	}
	c.drain()
	m, n, p := c.m, c.n, c.p
	for k := 0; k < pages; k++ {
		c.drainInterrupts()
		p.Sleep(m.Cfg.SyscallOverhead)
		n.charge(stats.Other, m.Cfg.SyscallOverhead)
		t0 := p.Now()
		m.diskReadInto(p, n, page+PageID(k))
		n.charge(stats.Fault, p.Now()-t0)
		// Kernel buffer -> user buffer copy.
		dur := m.Cfg.PageMemBusTime()
		start := n.MemBus.Reserve(p.Now(), dur)
		p.SleepUntil(start + dur)
		n.ExplicitReads++
	}
}

// FileWrite writes `pages` consecutive file pages from a user buffer:
// per page a syscall, a user-to-kernel copy, the page transfer to the
// disk node, and the controller's ACK/NACK/OK flow control (synchronous,
// as write() is).
func (c *Ctx) FileWrite(page PageID, pages int) {
	if c.rec != nil {
		c.rec(OpEvent{Kind: OpFileWrite, Page: page, Pages: pages})
		return
	}
	c.drain()
	m, n, p := c.m, c.n, c.p
	for k := 0; k < pages; k++ {
		c.drainInterrupts()
		p.Sleep(m.Cfg.SyscallOverhead)
		n.charge(stats.Other, m.Cfg.SyscallOverhead)
		// User buffer -> kernel buffer copy.
		dur := m.Cfg.PageMemBusTime()
		start := n.MemBus.Reserve(p.Now(), dur)
		p.SleepUntil(start + dur)
		t0 := p.Now()
		m.explicitWrite(p, n, page+PageID(k))
		n.charge(stats.Fault, p.Now()-t0)
		n.ExplicitWrites++
	}
}

// explicitWrite pushes one page to its disk synchronously, honoring the
// controller's NACK/OK protocol.
func (m *Machine) explicitWrite(p *sim.Proc, n *Node, page PageID) {
	d, dn := m.DiskFor(page)
	block := m.Layout.BlockFor(page)
	for {
		stages := append(n.stageBuf[:0], sim.Stage{
			Res: n.MemBus, Occupy: m.Cfg.PageMemBusTime(), Forward: m.Cfg.HopLatency,
		})
		stages = m.Mesh.AppendPathStages(stages, n.ID, dn, m.Cfg.PageSize)
		stages = append(stages, sim.Stage{Res: m.Nodes[dn].IOBus, Occupy: m.Cfg.PageIOBusTime()})
		_, arrive := sim.Pipeline(p.Now(), stages)
		n.stageBuf = stages[:0]
		p.SleepUntil(arrive)
		if d.Write(p, n.ID, page, block) == disk.ACK {
			break
		}
		n.queueOK(page, n.fileOK)
		n.fileOK.Wait(p)
		n.dropOK(n.fileOK)
	}
	ackArrive := m.Mesh.Transit(p.Now(), dn, n.ID, m.Cfg.CtrlMsgLen)
	p.SleepUntil(ackArrive)
}

// ExplicitBufferPages returns how many pages of user buffer an
// explicit-I/O program can safely keep resident per node without
// triggering paging: the frame pool minus the OS floor.
func ExplicitBufferPages(cfg param.Config) int {
	return cfg.FramesPerNode() - cfg.MinFreeFrames
}
