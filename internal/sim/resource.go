package sim

// Resource models a single FCFS server (a bus, a network link, a disk arm)
// using time reservations. A reservation made at simulation time t starts
// at max(t, end of the last reservation) — i.e. requests queue in arrival
// order without preemption. Because reservations are made in causal
// (simulation-time) order, this reproduces FIFO queueing delay exactly
// while requiring no events per request.
//
// Resource also accumulates utilization statistics: total busy time and
// total queueing (wait) time imposed on its users.
type Resource struct {
	e      *Engine
	name   string
	freeAt Time

	// stats
	Busy     Time   // total service time granted
	Waited   Time   // total time requests spent queued
	Requests uint64 // number of reservations
}

// NewResource returns an idle resource.
func NewResource(e *Engine, name string) *Resource {
	return &Resource{e: e, name: name}
}

// Name returns the resource name (for diagnostics).
func (r *Resource) Name() string { return r.name }

// Reserve books the resource for dur pcycles starting no earlier than
// `earliest`, and returns the start time of the granted slot. The caller is
// responsible for modeling its own waiting (e.g. sleeping until
// start+dur). earliest below the current time is clamped to now.
func (r *Resource) Reserve(earliest Time, dur Time) (start Time) {
	if dur < 0 {
		panic("sim: negative reservation on " + r.name)
	}
	if earliest < r.e.now {
		earliest = r.e.now
	}
	start = earliest
	if r.freeAt > start {
		start = r.freeAt
	}
	r.freeAt = start + dur
	r.Busy += dur
	r.Waited += start - earliest
	r.Requests++
	return start
}

// FreeAt returns the time at which the resource becomes idle given current
// reservations.
func (r *Resource) FreeAt() Time { return r.freeAt }

// Utilization returns the fraction of time [0, now] the resource was busy.
func (r *Resource) Utilization() float64 {
	if r.e.now == 0 {
		return 0
	}
	return float64(r.Busy) / float64(r.e.now)
}

// Stage is one hop of a pipelined (cut-through) transfer: a resource plus
// the time the payload occupies it and the latency to reach the next stage.
type Stage struct {
	Res     *Resource
	Occupy  Time // how long the payload holds this stage
	Forward Time // header latency from this stage to the next
}

// Pipeline reserves a sequence of stages with cut-through semantics: the
// payload may occupy consecutive stages concurrently, each stage starting
// no earlier than the previous stage's start plus its forward latency, and
// no earlier than the stage resource becomes free. It returns the time at
// which the payload has fully arrived at the end (last stage start + last
// stage occupancy). depart is when the transfer begins at the first stage.
//
// This reproduces wormhole/virtual-cut-through pipelining — total latency
// ≈ sum of forward latencies + max stage occupancy when uncontended —
// while each stage is still charged its full occupancy for contention.
func Pipeline(earliest Time, stages []Stage) (depart, arrive Time) {
	if len(stages) == 0 {
		return earliest, earliest
	}
	start := stages[0].Res.Reserve(earliest, stages[0].Occupy)
	depart = start
	arrive = start + stages[0].Occupy
	prevStart := start
	prevForward := stages[0].Forward
	for _, st := range stages[1:] {
		s := st.Res.Reserve(prevStart+prevForward, st.Occupy)
		end := s + st.Occupy
		if end > arrive {
			arrive = end
		}
		prevStart = s
		prevForward = st.Forward
	}
	return depart, arrive
}
