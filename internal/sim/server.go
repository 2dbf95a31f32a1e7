package sim

// Server is a single-unit queued server with two priority classes. Unlike
// Resource (which grants FCFS reservations at request time), Server holds
// a real queue: when the unit frees, the oldest HIGH-class waiter is
// served before any LOW-class waiter. It models schedulers like a disk
// controller that services demand reads ahead of background write-backs.
//
// Usage from a callback chain, with k the chain's pre-bound step:
//
//	if srv.AcquireThen(sim.High, k) {
//		// held now
//	} // else k runs once the server is handed over
//	...
//	srv.Release() // at the end of service
type Server struct {
	e      *Engine
	name   string
	busy   bool
	queues [2]fifo[request]

	// Stats.
	Busy   Time // cumulative service time (from grant to Release)
	Waited Time // cumulative queueing time
	Grants uint64
	heldAt Time
}

// request is a queued AcquireThen: its continuation and when it queued.
type request struct {
	k     func()
	since Time
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

// AcquireThen takes the server in priority order. A free server is taken
// at once and AcquireThen reports true; otherwise k joins the class's FIFO
// and AcquireThen reports false, and the Release that reaches k hands the
// server over by scheduling k at that instant, holding the server for it.
func (s *Server) AcquireThen(pri Priority, k func()) bool {
	if s.busy {
		s.queues[pri].push(request{k, s.e.now})
		return false
	}
	s.grant(s.e.now)
	return true
}

// TryAcquire takes the server without queueing; reports success.
func (s *Server) TryAcquire() bool {
	if s.busy {
		return false
	}
	s.grant(s.e.now)
	return true
}

// grant marks the server held from now by a request queued since.
func (s *Server) grant(since Time) {
	s.busy = true
	s.heldAt = s.e.now
	s.Waited += s.e.now - since
	s.Grants++
}

// Release frees the server and hands it to the oldest high-priority
// waiter, falling back to low priority.
func (s *Server) Release() {
	if !s.busy {
		panic("sim: Release of idle server " + s.name)
	}
	s.Busy += s.e.now - s.heldAt
	for pri := range s.queues {
		if r, ok := s.queues[pri].pop(); ok {
			// Hand over directly: the server stays busy, and the waiter
			// runs at the instant of the hand-over.
			s.grant(r.since)
			s.e.schedule(s.e.now, r.k)
			return
		}
	}
	s.busy = false
}

// QueueLen returns the number of waiters in the given class.
func (s *Server) QueueLen(pri Priority) int { return s.queues[pri].len() }

// Idle reports whether the server is free with no waiters.
func (s *Server) Idle() bool {
	return !s.busy && s.queues[High].len() == 0 && s.queues[Low].len() == 0
}
