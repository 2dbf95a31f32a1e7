package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace-event export. The format is the JSON Object Format of the
// Trace Event spec: {"traceEvents": [...]}, loadable in Perfetto and
// chrome://tracing. Timestamps ("ts"/"dur") are microseconds, derived
// from pcycles via NSPerTick; because that division is lossy, every
// event also carries the exact pcycle values in its args ("pc", "dpc"),
// which the decoder treats as authoritative — encode → decode returns
// the original spans bit-for-bit.

// chromeArgs is the args payload of an exported event: pc/dpc are exact
// pcycle start/duration, page the span's or instant's page; name is used
// by "M" metadata records.
type chromeArgs struct {
	PC   int64  `json:"pc,omitempty"`
	DPC  int64  `json:"dpc,omitempty"`
	Page int64  `json:"page,omitempty"`
	Name string `json:"name,omitempty"`
}

// chromeEvent is one record in traceEvents.
type chromeEvent struct {
	Name  string     `json:"name"`
	Ph    string     `json:"ph"`
	Pid   int        `json:"pid"`
	Tid   int        `json:"tid"`
	Ts    float64    `json:"ts"`
	Dur   float64    `json:"dur,omitempty"`
	Scope string     `json:"s,omitempty"` // instant scope ("t" = thread)
	Args  chromeArgs `json:"args,omitempty"`
}

// chromeDoc is the JSON Object Format envelope. NSPerTick rides in
// otherData so a decoder can invert the timestamp scaling, and so do the
// per-pid counts of events each trace's cap discarded.
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit,omitempty"`
	OtherData       struct {
		NSPerTick float64        `json:"nsPerTick,omitempty"`
		Dropped   map[int]uint64 `json:"dropped,omitempty"`
	} `json:"otherData,omitempty"`
}

// NamedTrace pairs a trace with a process name for multi-run exports
// (one pid per simulated machine).
type NamedTrace struct {
	Name  string
	Trace *Trace
}

// WriteChrome exports a single trace as Chrome trace-event JSON.
func (t *Trace) WriteChrome(w io.Writer, processName string) error {
	return WriteChromeMulti(w, []NamedTrace{{Name: processName, Trace: t}})
}

// WriteChromeMulti exports several traces into one file, one pid each,
// in slice order. Nil traces are skipped.
func WriteChromeMulti(w io.Writer, traces []NamedTrace) error {
	var doc chromeDoc
	doc.DisplayTimeUnit = "ns"
	nsPerTick := 5.0
	for _, nt := range traces {
		if nt.Trace != nil && nt.Trace.NSPerTick > 0 {
			nsPerTick = nt.Trace.NSPerTick
			break
		}
	}
	doc.OtherData.NSPerTick = nsPerTick
	usPerTick := nsPerTick / 1e3
	for pid, nt := range traces {
		t := nt.Trace
		if t == nil {
			continue
		}
		if t.dropped > 0 {
			if doc.OtherData.Dropped == nil {
				doc.OtherData.Dropped = make(map[int]uint64)
			}
			doc.OtherData.Dropped[pid] = t.dropped
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: chromeArgs{Name: nt.Name},
		})
		tracks := make([]int, 0, len(t.tracks))
		for id := range t.tracks {
			tracks = append(tracks, id)
		}
		sort.Ints(tracks)
		for _, id := range tracks {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: id,
				Args: chromeArgs{Name: t.tracks[id]},
			})
		}
		for _, s := range t.spans {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: s.Name, Ph: "X", Pid: pid, Tid: s.Track,
				Ts: float64(s.Start) * usPerTick, Dur: float64(s.End-s.Start) * usPerTick,
				Args: chromeArgs{PC: s.Start, DPC: s.End - s.Start, Page: s.Page},
			})
		}
		for _, in := range t.instants {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: in.Name, Ph: "i", Pid: pid, Tid: in.Track,
				Ts: float64(in.At) * usPerTick, Scope: "t",
				Args: chromeArgs{PC: in.At, Page: in.Page},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&doc)
}

// maxNSPerTick bounds the clock scale ReadChrome accepts: one second per
// pcycle.
const maxNSPerTick = 1e9

// ReadChrome decodes a file produced by WriteChrome/WriteChromeMulti
// back into per-process traces, in pid order. Spans and instants are
// restored exactly from the pc/dpc/page args; events written by other
// tools (without those args) fall back to rounding the microsecond
// timestamps. A trace's drop count is what otherData records plus what
// its own cap discards on reading.
func ReadChrome(r io.Reader) ([]NamedTrace, error) {
	var doc chromeDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("obs: decoding chrome trace: %w", err)
	}
	nsPerTick := doc.OtherData.NSPerTick
	if nsPerTick <= 0 {
		nsPerTick = 5
	}
	if nsPerTick > maxNSPerTick {
		// Exported timestamps would overflow to ±Inf, which JSON cannot
		// carry, so such a file could not be written back.
		return nil, fmt.Errorf("obs: implausible nsPerTick %g", nsPerTick)
	}
	byPid := make(map[int]*NamedTrace)
	pids := []int{}
	get := func(pid int) *NamedTrace {
		if nt, ok := byPid[pid]; ok {
			return nt
		}
		tr := NewTrace(0)
		tr.NSPerTick = nsPerTick
		nt := &NamedTrace{Trace: tr}
		byPid[pid] = nt
		pids = append(pids, pid)
		return nt
	}
	ticks := func(us float64) int64 {
		return int64(us*1e3/nsPerTick + 0.5)
	}
	for _, ev := range doc.TraceEvents {
		nt := get(ev.Pid)
		switch ev.Ph {
		case "M":
			switch ev.Name {
			case "process_name":
				nt.Name = ev.Args.Name
			case "thread_name":
				nt.Trace.SetTrack(ev.Tid, ev.Args.Name)
			}
		case "X":
			start, dur := ev.Args.PC, ev.Args.DPC
			if start == 0 && dur == 0 && (ev.Ts != 0 || ev.Dur != 0) {
				start, dur = ticks(ev.Ts), ticks(ev.Dur)
			}
			nt.Trace.Span(ev.Tid, ev.Name, start, start+dur, ev.Args.Page)
		case "i", "I":
			at := ev.Args.PC
			if at == 0 && ev.Ts != 0 {
				at = ticks(ev.Ts)
			}
			nt.Trace.Instant(ev.Tid, ev.Name, at, ev.Args.Page)
		}
	}
	for pid, n := range doc.OtherData.Dropped {
		get(pid).Trace.dropped += n
	}
	sort.Ints(pids)
	out := make([]NamedTrace, 0, len(pids))
	for _, pid := range pids {
		out = append(out, *byPid[pid])
	}
	return out, nil
}
