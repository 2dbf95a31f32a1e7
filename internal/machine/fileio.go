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

import "nwcache/internal/param"

// FileRead reads `pages` consecutive file pages starting at `page` into a
// user buffer: per page a syscall, the disk read protocol, and a
// kernel-to-user copy on the local memory bus (steps csPage to csPageDone
// of Ctx.advance).
func (c *Ctx) FileRead(page PageID, pages int) {
	c.push(cpuOp{arg: page, n: int32(pages), kind: OpFileRead})
}

// FileWrite writes `pages` consecutive file pages from a user buffer:
// per page a syscall, a user-to-kernel copy, the page transfer to the
// disk node, and the controller's ACK/NACK/OK flow control (synchronous,
// as write() is).
func (c *Ctx) FileWrite(page PageID, pages int) {
	c.push(cpuOp{arg: page, n: int32(pages), kind: OpFileWrite})
}

// ExplicitBufferPages returns how many pages of user buffer an
// explicit-I/O program can safely keep resident per node without
// triggering paging: the frame pool minus the OS floor.
func ExplicitBufferPages(cfg param.Config) int {
	return cfg.FramesPerNode() - cfg.MinFreeFrames
}
