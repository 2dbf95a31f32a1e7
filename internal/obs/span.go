package obs

// Span is one completed interval on the simulated clock: a named
// operation on a track (a lane in the trace viewer — one per CPU, disk
// arm, or NWCache interface), from Start to End in pcycles, about Page
// (the virtual page concerned).
type Span struct {
	Track int    `json:"track"`
	Name  string `json:"name"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	Page  int64  `json:"page,omitempty"`
}

// Instant is a zero-duration mark on a track, about Page.
type Instant struct {
	Track int    `json:"track"`
	Name  string `json:"name"`
	At    int64  `json:"at"`
	Page  int64  `json:"page,omitempty"`
}

// Trace collects spans and instants stamped with simulated time. A nil
// *Trace ignores everything, so emitters call unconditionally. The
// buffer is bounded: past Max events, new ones are counted in Dropped
// and discarded — a long run degrades to a truncated trace instead of
// unbounded memory growth.
type Trace struct {
	// NSPerTick converts pcycles to wall nanoseconds for export (5 ns in
	// the default NWCache configuration).
	NSPerTick float64

	max      int
	spans    []Span
	instants []Instant
	dropped  uint64
	tracks   map[int]string
}

// DefaultTraceCap bounds a trace to roughly 100 MB of span records.
const DefaultTraceCap = 1 << 21

// NewTrace returns a trace holding at most max events (spans plus
// instants); max <= 0 selects DefaultTraceCap.
func NewTrace(max int) *Trace {
	if max <= 0 {
		max = DefaultTraceCap
	}
	return &Trace{NSPerTick: 5, max: max, tracks: make(map[int]string)}
}

// SetTrack names a track for the viewer ("cpu3", "disk@6"). Nil-safe.
func (t *Trace) SetTrack(track int, name string) {
	if t == nil {
		return
	}
	t.tracks[track] = name
}

// Span records a completed interval about page. Nil-safe.
func (t *Trace) Span(track int, name string, start, end, page int64) {
	if t == nil {
		return
	}
	if len(t.spans)+len(t.instants) >= t.max {
		t.dropped++
		return
	}
	t.spans = append(t.spans, Span{Track: track, Name: name, Start: start, End: end, Page: page})
}

// Instant records a point event about page. Nil-safe.
func (t *Trace) Instant(track int, name string, at, page int64) {
	if t == nil {
		return
	}
	if len(t.spans)+len(t.instants) >= t.max {
		t.dropped++
		return
	}
	t.instants = append(t.instants, Instant{Track: track, Name: name, At: at, Page: page})
}

// Spans returns the recorded spans in emission order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Instants returns the recorded instants in emission order.
func (t *Trace) Instants() []Instant {
	if t == nil {
		return nil
	}
	return t.instants
}

// Dropped returns how many events the cap discarded.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Len returns the number of buffered events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans) + len(t.instants)
}
