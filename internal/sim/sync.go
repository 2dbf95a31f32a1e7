package sim

// fifo is a head-indexed queue: pop does not reslice away capacity, so a
// queue that empties regularly reuses one backing array instead of
// crawling through it allocation by allocation.
type fifo[T any] struct {
	s    []T
	head int
}

func (q *fifo[T]) push(v T) { q.s = append(q.s, v) }

func (q *fifo[T]) pop() (T, bool) {
	var zero T
	if q.head == len(q.s) {
		return zero, false
	}
	v := q.s[q.head]
	q.s[q.head] = zero
	q.head++
	if q.head == len(q.s) {
		q.s = q.s[:0]
		q.head = 0
	}
	return v, true
}

func (q *fifo[T]) len() int { return len(q.s) - q.head }

// Cond is a FIFO wait queue of continuations: WaitThen queues one until
// another actor calls Signal or Broadcast. Unlike sync.Cond there is no
// associated mutex: simulation code is single-threaded by construction,
// so the check of the guarded predicate and the call to WaitThen cannot
// race.
type Cond struct {
	e       *Engine
	waiting fifo[func()]
}

// NewCond returns an empty condition queue.
func NewCond(e *Engine) *Cond { return &Cond{e: e} }

// Init readies a Cond held by value (a struct field), the allocation-free
// form of NewCond. Call it once, before first use.
func (c *Cond) Init(e *Engine) { c.e = e }

// WaitThen queues k until a Signal or Broadcast reaches it; the wake-up
// schedules k at that instant. Wakeups are FIFO.
func (c *Cond) WaitThen(k func()) { c.waiting.push(k) }

// Signal wakes the longest waiter, if any. Returns true if one was woken.
func (c *Cond) Signal() bool {
	k, ok := c.waiting.pop()
	if ok {
		c.e.schedule(c.e.now, k)
	}
	return ok
}

// Broadcast wakes every waiter.
func (c *Cond) Broadcast() {
	for c.Signal() {
	}
}

// Semaphore is a counting semaphore with FIFO granting. Its wait queue is
// held by value, so a Semaphore (and a Mutex) is one object.
type Semaphore struct {
	n    int
	cond Cond
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(e *Engine, n int) *Semaphore {
	s := &Semaphore{}
	s.Init(e, n)
	return s
}

// Init readies a Semaphore held by value with n initial permits (see
// Cond.Init).
func (s *Semaphore) Init(e *Engine, n int) {
	s.n = n
	s.cond.Init(e)
}

// WaitThen queues k behind the other blocked acquirers until a Release
// reaches it. k must retry TryAcquire, and on failure call WaitThen again
// (back of the queue).
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
type Mutex struct{ s Semaphore }

// NewMutex returns an unlocked mutex.
func NewMutex(e *Engine) *Mutex {
	m := &Mutex{}
	m.Init(e)
	return m
}

// Init readies a Mutex held by value, unlocked (see Cond.Init).
func (m *Mutex) Init(e *Engine) { m.s.Init(e, 1) }

// TryLock acquires the mutex if it is free; reports success.
func (m *Mutex) TryLock() bool { return m.s.TryAcquire() }

// Idle reports whether the mutex is free with no waiter: taking and
// releasing it now would change nothing.
func (m *Mutex) Idle() bool { return m.s.n > 0 && m.s.cond.waiting.len() == 0 }

// WaitThen queues k until an Unlock reaches it (see Semaphore.WaitThen).
func (m *Mutex) WaitThen(k func()) { m.s.WaitThen(k) }

// Unlock releases the mutex.
func (m *Mutex) Unlock() { m.s.Release() }

// Barrier synchronizes a fixed group of n actors: none passes until all n
// of the current generation have arrived.
type Barrier struct {
	n       int
	arrived int
	cond    Cond
}

// NewBarrier returns a barrier for groups of n actors. n must be >= 1.
func NewBarrier(e *Engine, n int) *Barrier {
	if n < 1 {
		panic("sim: barrier size must be >= 1")
	}
	b := &Barrier{n: n}
	b.cond.Init(e)
	return b
}

// ArriveThen enters the barrier. The last arrival of a generation
// releases everyone and reports true; any other arrival queues k, which
// the last arrival schedules at its instant, and reports false.
func (b *Barrier) ArriveThen(k func()) bool {
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.cond.Broadcast()
		return true
	}
	b.cond.WaitThen(k)
	return false
}
