package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"nwcache/internal/obs"
	"nwcache/internal/stats"
)

// summary is the post-hoc analysis of one run's trace.
type summary struct {
	counts map[string]uint64 // records by name, device spans included

	faultDisk, faultRing, swap obs.Histogram // latencies, pcycles

	// Ring occupancy (pages on the ring), from the ring.insert and
	// ring.release instants.
	ringPeak    int
	ringAvg     float64 // time-weighted mean occupancy
	ringSamples int
	// ringTimeline is the time-weighted mean occupancy in each of
	// timelineBuckets equal slices of the window.
	ringTimeline []float64

	hotPages []pageCount // the most-faulted pages

	window  int64 // pcycles from the first machine record to the last
	dropped uint64
}

// pageCount pairs a page with its fault count.
type pageCount struct {
	page  int64
	count uint64
}

// timelineBuckets is the resolution of the occupancy timeline.
const timelineBuckets = 60

// machineRecord reports whether name is one of the machine's protocol
// records. Only these bound the analysis window: the device spans
// disk.read and disk.write are counted, but background write-backs run
// on past the machine's last protocol event.
func machineRecord(name string) bool {
	switch name {
	case "fault.disk", "fault.ring", "fault.wait", "swap.ring", "swap.disk",
		"ring.drain", "ring.victim", "ring.insert", "ring.release",
		"clean.evict", "disk.nack", "disk.ok":
		return true
	}
	return false
}

// analyze computes the summary of tr, whose instants must be in emission
// (that is, time) order, as a machine records them.
func analyze(tr *obs.Trace) *summary {
	s := &summary{counts: make(map[string]uint64), dropped: tr.Dropped()}
	start, end := int64(math.MaxInt64), int64(math.MinInt64)
	bound := func(from, to int64) {
		start, end = min(start, from), max(end, to)
	}
	pageFaults := make(map[int64]uint64)
	for _, sp := range tr.Spans() {
		s.counts[sp.Name]++
		if !machineRecord(sp.Name) {
			continue
		}
		bound(sp.Start, sp.End)
		switch sp.Name {
		case "fault.disk":
			s.faultDisk.Observe(sp.End - sp.Start)
			pageFaults[sp.Page]++
		case "fault.ring":
			s.faultRing.Observe(sp.End - sp.Start)
			pageFaults[sp.Page]++
		case "swap.ring", "swap.disk":
			s.swap.Observe(sp.End - sp.Start)
		}
	}
	for _, in := range tr.Instants() {
		s.counts[in.Name]++
		if machineRecord(in.Name) {
			bound(in.At, in.At)
		}
	}
	if start > end {
		return s // no machine records
	}
	s.window = end - start
	s.ring(tr.Instants(), start, end)
	for page, n := range pageFaults {
		s.hotPages = append(s.hotPages, pageCount{page: page, count: n})
	}
	sort.Slice(s.hotPages, func(i, j int) bool {
		if s.hotPages[i].count != s.hotPages[j].count {
			return s.hotPages[i].count > s.hotPages[j].count
		}
		return s.hotPages[i].page < s.hotPages[j].page
	})
	if len(s.hotPages) > 10 {
		s.hotPages = s.hotPages[:10]
	}
	return s
}

// ring folds the ring.insert and ring.release instants into the
// occupancy peak, mean and timeline over the window [start, end].
func (s *summary) ring(instants []obs.Instant, start, end int64) {
	occupancy, last := 0, start
	var weighted float64
	tlWeight := make([]float64, timelineBuckets)
	bw := float64(s.window) / timelineBuckets
	// hold folds the constant occupancy since last, up to `to`, into the
	// mean and into the timeline buckets the interval overlaps (only
	// those, so the pass is linear in the records).
	hold := func(to int64) {
		weighted += float64(occupancy) * float64(to-last)
		if s.window > 0 && to > last {
			b0 := max(int(float64(last-start)/bw), 0)
			b1 := min(int(float64(to-start)/bw), timelineBuckets-1)
			for b := b0; b <= b1; b++ {
				blo := float64(start) + float64(b)*bw
				lo, hi := max(float64(last), blo), min(float64(to), blo+bw)
				if hi > lo {
					tlWeight[b] += (hi - lo) * float64(occupancy)
				}
			}
		}
		last = to
	}
	for _, in := range instants {
		switch in.Name {
		case "ring.insert":
			hold(in.At)
			occupancy++
		case "ring.release":
			hold(in.At)
			if occupancy > 0 {
				occupancy--
			}
		default:
			continue
		}
		s.ringPeak = max(s.ringPeak, occupancy)
		s.ringSamples++
	}
	if s.window <= 0 {
		return
	}
	hold(end)
	s.ringAvg = weighted / float64(s.window)
	if s.ringSamples > 0 {
		s.ringTimeline = make([]float64, timelineBuckets)
		for b, w := range tlWeight {
			s.ringTimeline[b] = w / bw
		}
	}
}

// String renders the summary as a report.
func (s *summary) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "window %d pcycles, %d events dropped\n\n", s.window, s.dropped)

	names := make([]string, 0, len(s.counts))
	for name := range s.counts {
		names = append(names, name)
	}
	sort.Strings(names)
	t := &stats.Table{Title: "Record counts", Headers: []string{"Record", "Count"}}
	for _, name := range names {
		t.AddRow(name, fmt.Sprintf("%d", s.counts[name]))
	}
	sb.WriteString(t.String())
	sb.WriteByte('\n')

	lat := &stats.Table{
		Title:   "Latencies (pcycles)",
		Headers: []string{"Metric", "Count", "Mean", "p50", "p99", "Max"},
	}
	addLat := func(name string, h *obs.Histogram) {
		if h.Count() == 0 {
			return
		}
		lat.AddRow(name,
			fmt.Sprintf("%d", h.Count()),
			stats.FmtF(h.Mean(), 0),
			fmt.Sprintf("%d", h.Quantile(0.5)),
			fmt.Sprintf("%d", h.Quantile(0.99)),
			fmt.Sprintf("%d", h.Quantile(1)))
	}
	addLat("fault (disk)", &s.faultDisk)
	addLat("fault (ring)", &s.faultRing)
	addLat("swap-out", &s.swap)
	sb.WriteString(lat.String())
	sb.WriteByte('\n')

	if s.ringSamples > 0 {
		fmt.Fprintf(&sb, "ring occupancy: peak %d pages, time-weighted mean %.1f\n",
			s.ringPeak, s.ringAvg)
		if len(s.ringTimeline) > 0 {
			fmt.Fprintf(&sb, "timeline:       |%s| 0..%d pages\n",
				stats.Sparkline(s.ringTimeline, float64(s.ringPeak)), s.ringPeak)
		}
		sb.WriteByte('\n')
	}
	if len(s.hotPages) > 0 {
		hot := &stats.Table{Title: "Hottest pages (by faults)", Headers: []string{"Page", "Faults"}}
		for _, pc := range s.hotPages {
			hot.AddRow(fmt.Sprintf("%d", pc.page), fmt.Sprintf("%d", pc.count))
		}
		sb.WriteString(hot.String())
	}
	return sb.String()
}
