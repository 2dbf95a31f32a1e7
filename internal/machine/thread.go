//go:build go1.23

package machine

import "iter"

// An application thread is a coroutine (iter.Pull) over its program,
// owned by the machine. It runs only while an engine callback has resumed
// it, so it never races the engine, and it gives control back at exactly
// one point, Ctx.block, which only Ctx.drain calls: the thread's waits are
// all steps of its CPU's chain (cpu.go), and the chain's callback resumes
// it in place once the queue has drained.

// threadStopped unwinds a stranded thread's coroutine when Machine.Run
// stops it.
type threadStopped struct{}

// start makes the context thread c.proc of prog and schedules its first
// resume at time 0. The thread records its completion time once the
// program returns and its queued operations have run.
func (c *Ctx) start(prog Program) {
	m, n := c.m, c.n
	c.pull, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil && r != (threadStopped{}) {
				panic(r)
			}
		}()
		c.yield = yield
		prog.Run(c, c.proc)
		c.drain()
		n.doneAt = m.E.Now()
		c.done = true
	})
	c.resume = func() {
		m.threadResumes++
		c.pull()
	}
	m.E.At(0, c.resume)
}

// block suspends the thread until a callback resumes it. When Run stops a
// stranded thread, block unwinds it instead of returning.
func (c *Ctx) block() {
	c.since = c.m.E.Now()
	if !c.yield(struct{}{}) {
		panic(threadStopped{})
	}
}
