package sim

// waiter is one entry of a Cond's queue: a parked process or a continuation.
type waiter struct {
	p *Proc
	k func()
}

// waitFIFO is a head-indexed waiter queue: pop does not reslice away
// capacity, so a queue that empties regularly reuses one backing array
// instead of crawling through it allocation by allocation.
type waitFIFO struct {
	s    []waiter
	head int
}

func (q *waitFIFO) push(w waiter) { q.s = append(q.s, w) }

func (q *waitFIFO) pop() (waiter, bool) {
	if q.head == len(q.s) {
		return waiter{}, false
	}
	w := q.s[q.head]
	q.s[q.head] = waiter{}
	q.head++
	if q.head == len(q.s) {
		q.s = q.s[:0]
		q.head = 0
	}
	return w, true
}

func (q *waitFIFO) len() int { return len(q.s) - q.head }

// Cond is a FIFO wait queue. Wait parks the calling process (WaitThen
// queues a continuation) until another actor calls Signal or Broadcast.
// Unlike sync.Cond there is no associated mutex: simulation code is
// single-threaded by construction, so the check of the guarded predicate
// and the call to Wait cannot race.
type Cond struct {
	e       *Engine
	name    string
	waiting waitFIFO
}

// NewCond returns an empty condition queue.
func NewCond(e *Engine) *Cond { return &Cond{e: e, name: "cond"} }

// Named labels the queue for blocked-proc dumps and returns it (chainable
// after NewCond).
func (c *Cond) Named(name string) *Cond {
	c.name = name
	return c
}

// Wait parks p until a Signal/Broadcast wakes it. Wakeups are FIFO.
func (c *Cond) Wait(p *Proc) {
	c.waiting.push(waiter{p: p})
	p.Park(c.name)
}

// WaitThen is Wait's continuation form: k joins the same FIFO, and the
// Signal that reaches it schedules k where it would have woken a process.
func (c *Cond) WaitThen(k func()) { c.waiting.push(waiter{k: k}) }

// Signal wakes the longest waiter (process or continuation), if any.
// Returns true if one was woken.
func (c *Cond) Signal() bool {
	for {
		w, ok := c.waiting.pop()
		if !ok {
			return false
		}
		if w.k != nil {
			c.e.schedule(c.e.now, evFunc, w.k, nil)
			return true
		}
		if w.p.isParked() {
			c.e.unpark(w.p)
			return true
		}
		// Process was killed while on the queue; skip it.
	}
}

// Broadcast wakes every waiting process.
func (c *Cond) Broadcast() {
	for c.Signal() {
	}
}

// Waiting reports how many waiters are queued.
func (c *Cond) Waiting() int { return c.waiting.len() }

// Semaphore is a counting semaphore with FIFO granting.
type Semaphore struct {
	n    int
	cond *Cond
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(e *Engine, n int) *Semaphore {
	return &Semaphore{n: n, cond: NewCond(e).Named("sem")}
}

// Named labels the semaphore for blocked-proc dumps; chainable.
func (s *Semaphore) Named(name string) *Semaphore {
	s.cond.Named(name)
	return s
}

// Acquire takes one permit, parking p until one is available.
func (s *Semaphore) Acquire(p *Proc) {
	for s.n == 0 {
		s.cond.Wait(p)
	}
	s.n--
}

// WaitThen is Acquire's continuation form: k joins the FIFO of blocked
// Acquires and runs when a Release reaches it. Like a woken process, k
// must retry TryAcquire, and on failure call WaitThen (back of the queue).
func (s *Semaphore) WaitThen(k func()) { s.cond.WaitThen(k) }

// TryAcquire takes a permit without blocking; reports success.
func (s *Semaphore) TryAcquire() bool {
	if s.n == 0 {
		return false
	}
	s.n--
	return true
}

// Release returns one permit and wakes a waiter if any.
func (s *Semaphore) Release() {
	s.n++
	s.cond.Signal()
}

// Available returns the current permit count.
func (s *Semaphore) Available() int { return s.n }

// Mutex is a binary semaphore with Lock/Unlock naming. It models, e.g.,
// the mutual exclusion on global page-table entries.
type Mutex struct{ s *Semaphore }

// NewMutex returns an unlocked mutex.
func NewMutex(e *Engine) *Mutex { return &Mutex{s: NewSemaphore(e, 1).Named("mutex")} }

// Named labels the mutex for blocked-proc dumps; chainable.
func (m *Mutex) Named(name string) *Mutex {
	m.s.Named(name)
	return m
}

// Lock acquires the mutex, parking p until it is free.
func (m *Mutex) Lock(p *Proc) { m.s.Acquire(p) }

// TryLock acquires the mutex if it is free; reports success.
func (m *Mutex) TryLock() bool { return m.s.TryAcquire() }

// WaitThen is Lock's continuation form (see Semaphore.WaitThen).
func (m *Mutex) WaitThen(k func()) { m.s.WaitThen(k) }

// Unlock releases the mutex.
func (m *Mutex) Unlock() { m.s.Release() }

// Barrier synchronizes a fixed group of n processes: each call to Arrive
// parks until all n processes of the current generation have arrived.
type Barrier struct {
	n       int
	arrived int
	cond    *Cond
}

// NewBarrier returns a barrier for groups of n processes. n must be >= 1.
func NewBarrier(e *Engine, n int) *Barrier {
	if n < 1 {
		panic("sim: barrier size must be >= 1")
	}
	return &Barrier{n: n, cond: NewCond(e).Named("barrier")}
}

// Arrive enters the barrier; the last arrival releases everyone.
// It returns the time spent waiting at the barrier.
func (b *Barrier) Arrive(p *Proc) Time {
	start := p.Now()
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.cond.Broadcast()
		return 0
	}
	b.cond.Wait(p)
	return p.Now() - start
}

// Queue is an unbounded FIFO mailbox. Push never blocks and may be called
// from event callbacks; Pop parks the caller until an item is available.
// Like waitFIFO, the item buffer is head-indexed so a queue that drains
// regularly reuses its backing array.
type Queue[T any] struct {
	items []T
	head  int
	cond  *Cond
}

// NewQueue returns an empty mailbox.
func NewQueue[T any](e *Engine) *Queue[T] { return &Queue[T]{cond: NewCond(e).Named("queue")} }

// Push appends an item and wakes one waiting consumer.
func (q *Queue[T]) Push(v T) {
	q.items = append(q.items, v)
	q.cond.Signal()
}

// take removes the head item; the queue must be non-empty.
func (q *Queue[T]) take() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v
}

// Pop removes and returns the oldest item, parking p while empty.
func (q *Queue[T]) Pop(p *Proc) T {
	for q.Len() == 0 {
		q.cond.Wait(p)
	}
	return q.take()
}

// TryPop removes the oldest item without blocking.
func (q *Queue[T]) TryPop() (T, bool) {
	var zero T
	if q.Len() == 0 {
		return zero, false
	}
	return q.take(), true
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Peek returns the oldest item without removing it.
func (q *Queue[T]) Peek() (T, bool) {
	var zero T
	if q.Len() == 0 {
		return zero, false
	}
	return q.items[q.head], true
}
