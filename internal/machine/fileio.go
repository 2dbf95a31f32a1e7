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
	m, n := c.m, c.n
	for k := 0; k < pages; k++ {
		c.drainInterrupts()
		c.sleep(m.Cfg.SyscallOverhead)
		n.charge(stats.Other, m.Cfg.SyscallOverhead)
		// The disk-read steps of a fault, with the thread blocked until
		// they finish.
		t0 := m.E.Now()
		if !c.fetch.start(page + PageID(k)) {
			c.block("file-read")
		}
		n.charge(stats.Fault, m.E.Now()-t0)
		// Kernel buffer -> user buffer copy.
		dur := m.pageMemBus
		start := n.MemBus.Reserve(m.E.Now(), dur)
		c.sleepTill(start + dur)
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
	m, n := c.m, c.n
	for k := 0; k < pages; k++ {
		c.drainInterrupts()
		c.sleep(m.Cfg.SyscallOverhead)
		n.charge(stats.Other, m.Cfg.SyscallOverhead)
		// User buffer -> kernel buffer copy.
		dur := m.pageMemBus
		start := n.MemBus.Reserve(m.E.Now(), dur)
		c.sleepTill(start + dur)
		t0 := m.E.Now()
		c.explicitWrite(page + PageID(k))
		n.charge(stats.Fault, m.E.Now()-t0)
		n.ExplicitWrites++
	}
}

// explicitWrite pushes one page to its disk synchronously, honoring the
// controller's NACK/OK protocol.
func (c *Ctx) explicitWrite(page PageID) {
	m, n := c.m, c.n
	d, dn := m.DiskFor(page)
	block := m.Layout.BlockFor(page)
	for {
		stages := append(n.stageBuf[:0], sim.Stage{
			Res: n.MemBus, Occupy: m.pageMemBus, Forward: m.Cfg.HopLatency,
		})
		stages = m.Mesh.AppendPathStages(stages, n.ID, dn, m.Cfg.PageSize)
		stages = append(stages, sim.Stage{Res: m.Nodes[dn].IOBus, Occupy: m.pageIOBus})
		_, arrive := sim.Pipeline(m.E.Now(), stages)
		n.stageBuf = stages[:0]
		c.sleepTill(arrive)
		c.sleepTill(d.BookWrite())
		if d.AnswerWrite(n.ID, page, block) == disk.ACK {
			break
		}
		n.queueOK(page, n.fileOK)
		n.fileOK.WaitThen(c.resume)
		c.block("disk OK")
		n.dropOK(n.fileOK)
	}
	c.sleepTill(m.Mesh.Transit(m.E.Now(), dn, n.ID, m.Cfg.CtrlMsgLen))
}

// ExplicitBufferPages returns how many pages of user buffer an
// explicit-I/O program can safely keep resident per node without
// triggering paging: the frame pool minus the OS floor.
func ExplicitBufferPages(cfg param.Config) int {
	return cfg.FramesPerNode() - cfg.MinFreeFrames
}
