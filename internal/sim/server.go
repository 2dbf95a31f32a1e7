package sim

// Server is a single-unit queued server with two priority classes. Unlike
// Resource (which grants FCFS reservations at request time), Server holds
// a real queue: when the unit frees, the oldest HIGH-class waiter is
// served before any LOW-class waiter. It models schedulers like a disk
// controller that services demand reads ahead of background write-backs.
//
// Usage from a process:
//
//	srv.Acquire(p, sim.High)
//	p.Sleep(serviceTime)
//	srv.Release()
type Server struct {
	e      *Engine
	name   string
	busy   bool
	queues [2]waitFIFO

	// Stats.
	Busy   Time // cumulative service time (from Acquire to Release)
	Waited Time // cumulative queueing time
	Grants uint64
	holder *Proc
	heldAt Time
}

// Priority classes for Server.
type Priority int

// Server priority classes.
const (
	High Priority = iota
	Low
)

// NewServer returns an idle server.
func NewServer(e *Engine, name string) *Server {
	return &Server{e: e, name: name}
}

// Name returns the server's name.
func (s *Server) Name() string { return s.name }

// Acquire takes the server in priority order, parking p while it is held.
func (s *Server) Acquire(p *Proc, pri Priority) {
	t0 := p.Now()
	if s.busy {
		s.queues[pri].push(waiter{p: p})
		p.Park(s.name)
	}
	s.busy = true
	s.holder = p
	s.heldAt = p.Now()
	s.Waited += p.Now() - t0
	s.Grants++
}

// TryAcquire takes the server without blocking; reports success.
func (s *Server) TryAcquire(p *Proc, pri Priority) bool {
	if s.busy {
		return false
	}
	s.Acquire(p, pri)
	return true
}

// Release frees the server and hands it to the oldest high-priority
// waiter, falling back to low priority.
func (s *Server) Release() {
	if !s.busy {
		panic("sim: Release of idle server " + s.name)
	}
	s.Busy += s.e.now - s.heldAt
	s.holder = nil
	for pri := range s.queues {
		for {
			w, ok := s.queues[pri].pop()
			if !ok {
				break
			}
			if w.p.isParked() {
				// Hand over directly: the server stays busy and the waiter
				// resumes inside its Acquire.
				s.e.unpark(w.p)
				return
			}
			// Waiter was killed; skip.
		}
	}
	s.busy = false
}

// Use acquires, holds for dur, and releases; returns queueing time.
func (s *Server) Use(p *Proc, pri Priority, dur Time) (waited Time) {
	t0 := p.Now()
	s.Acquire(p, pri)
	waited = p.Now() - t0
	p.Sleep(dur)
	s.Release()
	return waited
}

// QueueLen returns the number of waiters in the given class.
func (s *Server) QueueLen(pri Priority) int { return s.queues[pri].len() }

// Idle reports whether the server is free with no waiters.
func (s *Server) Idle() bool {
	return !s.busy && s.queues[High].len() == 0 && s.queues[Low].len() == 0
}
