// Package optical implements the NWCache: the optical ring network/write
// cache hybrid of §3.2.
//
// The ring carries one writable WDM "cache channel" per node. A page
// swapped out by a node is inserted on that node's channel and circulates
// — the fiber is a delay-line memory — until either (a) the NWCache
// interface of the I/O node owning the page's disk copies it into the disk
// controller cache, or (b) a node faults on the page and snoops it
// straight off the channel (victim caching). In both cases an ACK flows
// back to the swapping node, which then reuses the channel slot and clears
// the page's Ring bit.
//
// Timing: a page inserted at t0 by node i passes node j at
// t0 + offset(i,j) + k·roundTrip, where offset is the fractional ring
// distance between the nodes. Snooping a page therefore waits for its next
// pass, then pays the channel-rate extraction time.
package optical

import (
	"fmt"

	"nwcache/internal/obs"
	"nwcache/internal/param"
	"nwcache/internal/sim"
)

// PageID is a virtual page number.
type PageID = int64

// EntryState tracks a page's life on the ring.
type EntryState int

// Entry states.
const (
	OnRing   EntryState = iota // circulating, available for drain or snoop
	Claimed                    // a faulting node is snooping it off
	Draining                   // the disk-side interface is copying it
	Gone                       // removed; slot released
)

// Entry is one page stored on a cache channel.
//
// Entries are pooled per ring: Release returns an entry to the ring's free
// list, and a later Insert reuses it for another page. The lifetime rule:
//
//   - A *Entry is valid only while the page is on its channel (State is
//     not Gone). Insert returns one; FindOnChannel and Channel.Entries
//     yield only such entries.
//   - Every reference that can outlive Release is a Ref: a notice queued
//     at an interface, a notify, cancel or ACK message in flight, a
//     page-table entry's Ring bit, a conservative swap-out holding its
//     frame. A Ref names one incarnation of an entry; once the entry is
//     reused it reads as Gone, so a recycled entry never looks OnRing to
//     a holder of an older Ref.
//   - A voided entry is never reused: its channel slot is freed, but the
//     entry itself is retired, so its Ref keeps reporting Voided.
type Entry struct {
	Page       PageID
	Channel    int // owning channel == swapping node id
	InsertedAt sim.Time
	State      EntryState
	// Voided marks an entry destroyed by an injected I/O-node crash (the
	// fiber copy is gone without an ACK). The machine layer's recovery
	// policy decides whether that is data loss or triggers a mesh resend.
	Voided bool
	gen    uint32 // incarnation, bumped each time the entry is reused
}

// Ref returns a checked reference to the entry's current incarnation.
func (en *Entry) Ref() Ref { return Ref{en, en.gen, int32(en.Channel)} }

// Ref is a generation-checked reference to one incarnation of an Entry,
// for holders that may outlive its Release (see Entry). The zero Ref
// refers to nothing.
type Ref struct {
	en  *Entry
	gen uint32
	ch  int32 // the incarnation's channel, kept for holders of a stale Ref
}

// Entry returns the referenced entry while it is still this incarnation,
// or nil for the zero Ref and once the entry has been reused.
func (r Ref) Entry() *Entry {
	if r.en == nil || r.en.gen != r.gen {
		return nil
	}
	return r.en
}

// Channel returns the channel the incarnation was inserted on; unlike the
// entry's own field, it stays valid after the entry is reused.
func (r Ref) Channel() int { return int(r.ch) }

// State returns the incarnation's state: Gone once it left the ring,
// whether or not the entry has been reused since.
func (r Ref) State() EntryState {
	if en := r.Entry(); en != nil {
		return en.State
	}
	return Gone
}

// Voided reports whether the incarnation was destroyed by a crash.
func (r Ref) Voided() bool {
	en := r.Entry()
	return en != nil && en.Voided
}

// Channel is one WDM cache channel: the write path of a single node.
type Channel struct {
	owner   int
	slots   int
	entries []*Entry // insertion (FIFO) order, live entries only
}

// Used returns the number of occupied page slots.
func (c *Channel) Used() int { return len(c.entries) }

// Entries returns the live entries in insertion order. The slice is the
// channel's own storage: callers that mutate the channel while iterating
// (e.g. crash voiding) must copy it first.
func (c *Channel) Entries() []*Entry { return c.entries }

// HasRoom reports whether another page fits.
func (c *Channel) HasRoom() bool { return len(c.entries) < c.slots }

// Ring is the whole optical NWCache.
type Ring struct {
	e         *sim.Engine
	nodes     int
	roundTrip int64
	pageXfer  int64
	channels  []*Channel
	owned     [][]int  // channel indices per node
	free      []*Entry // released entries, reused by Insert

	// Statistics.
	Inserts    uint64
	Drains     uint64
	VictimHits uint64
	PeakUsed   int

	// Per-channel observation handles, nil until Observe wires them (the
	// hot paths then pay one nil check each).
	chInserts []*obs.Counter
	chDrains  []*obs.Counter
	chVictims []*obs.Counter
	tgUsed    *obs.TimeGauge // ring occupancy over simulated time
}

// New builds the ring from the configuration. With RingChannels == Nodes
// (the paper's design) each node owns one writable cache channel; with
// more channels (the OTDM extension of §4 — "multiplexing techniques such
// as OTDM which will potentially support 5000 channels") the extra
// channels are distributed round-robin, giving nodes several independent
// transmitters and proportionally more optical storage.
func New(e *sim.Engine, cfg param.Config) *Ring {
	r := &Ring{
		e:         e,
		nodes:     cfg.Nodes,
		roundTrip: cfg.RingRoundTrip,
		pageXfer:  cfg.PageRingTime(),
		owned:     make([][]int, cfg.Nodes),
	}
	for i := 0; i < cfg.RingChannels; i++ {
		owner := i % cfg.Nodes
		r.channels = append(r.channels, &Channel{owner: owner, slots: cfg.RingSlotsPerChannel()})
		r.owned[owner] = append(r.owned[owner], i)
	}
	return r
}

// Channels returns the total channel count.
func (r *Ring) Channels() int { return len(r.channels) }

// ChannelOf returns node n's first writable channel (the paper's
// one-channel-per-node view).
func (r *Ring) ChannelOf(n int) *Channel { return r.channels[r.owned[n][0]] }

// OwnedChannels returns the indices of the channels node n can write.
func (r *Ring) OwnedChannels(n int) []int { return r.owned[n] }

// Channel returns channel i.
func (r *Ring) Channel(i int) *Channel { return r.channels[i] }

// RoundTrip returns the ring's circulation period.
func (r *Ring) RoundTrip() int64 { return r.roundTrip }

// HasRoomFor reports whether any of node's channels can take a page.
func (r *Ring) HasRoomFor(node int) bool {
	for _, i := range r.owned[node] {
		if r.channels[i].HasRoom() {
			return true
		}
	}
	return false
}

// Insert places a page on the first of node's channels with room. The
// caller must have checked HasRoomFor and already paid the local I/O bus
// + insertion transfer time; Insert itself is instantaneous bookkeeping
// at the completion instant.
func (r *Ring) Insert(node int, page PageID) *Entry {
	for _, i := range r.owned[node] {
		if r.channels[i].HasRoom() {
			return r.InsertOn(i, page)
		}
	}
	panic(fmt.Sprintf("optical: node %d: all channels full", node))
}

// InsertOn places a page on a specific channel, which must have room and
// be writable (owned); Insert is the usual entry point.
func (r *Ring) InsertOn(ch int, page PageID) *Entry {
	c := r.channels[ch]
	if !c.HasRoom() {
		panic(fmt.Sprintf("optical: channel %d overflow", ch))
	}
	var en *Entry
	if k := len(r.free); k > 0 {
		en, r.free = r.free[k-1], r.free[:k-1]
	} else {
		en = new(Entry)
	}
	*en = Entry{Page: page, Channel: ch, InsertedAt: r.e.Now(), State: OnRing, gen: en.gen + 1}
	c.entries = append(c.entries, en)
	r.Inserts++
	if u := r.TotalUsed(); u > r.PeakUsed {
		r.PeakUsed = u
	}
	if r.chInserts != nil {
		r.chInserts[ch].Inc()
		r.tgUsed.Set(r.e.Now(), int64(r.TotalUsed()))
	}
	return en
}

// NoteDrain counts a page drained off channel ch to disk (called by the
// NWCache interface once the disk install succeeds).
func (r *Ring) NoteDrain(ch int) {
	r.Drains++
	if r.chDrains != nil {
		r.chDrains[ch].Inc()
	}
}

// NoteVictim counts a victim-cache hit snooped off channel ch (called by
// the faulting machine layer).
func (r *Ring) NoteVictim(ch int) {
	r.VictimHits++
	if r.chVictims != nil {
		r.chVictims[ch].Inc()
	}
}

// Observe wires the ring into an obs scope: aggregate totals as probes,
// plus per-channel insert/drain/victim-hit counters ("ch3.inserts") and
// a simulated-time occupancy gauge. No-op on a nil scope.
func (r *Ring) Observe(sc *obs.Scope) {
	if sc == nil {
		return
	}
	sc.ProbeCounter("inserts", func() int64 { return int64(r.Inserts) })
	sc.ProbeCounter("drains", func() int64 { return int64(r.Drains) })
	sc.ProbeCounter("victim_hits", func() int64 { return int64(r.VictimHits) })
	sc.ProbeGauge("peak_used", func() int64 { return int64(r.PeakUsed) })
	sc.ProbeGauge("used", func() int64 { return int64(r.TotalUsed()) })
	r.tgUsed = sc.TimeGauge("used_over_time")
	r.chInserts = make([]*obs.Counter, len(r.channels))
	r.chDrains = make([]*obs.Counter, len(r.channels))
	r.chVictims = make([]*obs.Counter, len(r.channels))
	for i := range r.channels {
		csc := sc.Scope(fmt.Sprintf("ch%d", i))
		r.chInserts[i] = csc.Counter("inserts")
		r.chDrains[i] = csc.Counter("drains")
		r.chVictims[i] = csc.Counter("victim_hits")
	}
}

// OwnerOf returns the node that writes channel ch.
func (r *Ring) OwnerOf(ch int) int { return r.channels[ch].owner }

// Release frees the entry's channel slot (called when the swapping node
// receives the ACK, or when a crash voids the page) and returns the entry
// to the free list, unless it was voided. Releasing a Gone entry is a
// no-op, but only a Ref may be kept past Release (see Entry).
func (r *Ring) Release(en *Entry) {
	if en.State == Gone {
		return
	}
	en.State = Gone
	ch := r.channels[en.Channel]
	for i, x := range ch.entries {
		if x == en {
			ch.entries = append(ch.entries[:i], ch.entries[i+1:]...)
			if r.tgUsed != nil {
				r.tgUsed.Set(r.e.Now(), int64(r.TotalUsed()))
			}
			if !en.Voided {
				r.free = append(r.free, en)
			}
			return
		}
	}
	panic(fmt.Sprintf("optical: releasing entry for page %d not on channel %d", en.Page, en.Channel))
}

// offset returns the ring propagation delay from node i to node j.
func (r *Ring) offset(i, j int) int64 {
	d := ((j-i)%r.nodes + r.nodes) % r.nodes
	return int64(d) * r.roundTrip / int64(r.nodes)
}

// NextPass returns the earliest time >= now at which the entry's page
// begins passing reader's interface.
func (r *Ring) NextPass(en *Entry, reader int, now sim.Time) sim.Time {
	first := en.InsertedAt + r.offset(r.OwnerOf(en.Channel), reader)
	if first >= now {
		return first
	}
	elapsed := now - first
	k := (elapsed + r.roundTrip - 1) / r.roundTrip
	return first + k*r.roundTrip
}

// SnoopDone returns when a snoop of the entry's page starting at now has
// fully streamed it past reader's interface (next pass + extraction
// time). The entry must be Claimed or Draining by the caller beforehand
// so no one else grabs it.
func (r *Ring) SnoopDone(en *Entry, reader int, now sim.Time) sim.Time {
	return r.NextPass(en, reader, now) + r.pageXfer
}

// TotalUsed returns the number of pages currently stored on the ring.
func (r *Ring) TotalUsed() int {
	n := 0
	for _, ch := range r.channels {
		n += ch.Used()
	}
	return n
}

// FindOnChannel returns the live entry for page on any of node's owned
// channels, or nil. The paper's faulting node knows the swapping node from
// the page's last virtual-to-physical translation and searches its
// channel(s).
func (r *Ring) FindOnChannel(node int, page PageID) *Entry {
	for _, i := range r.owned[node] {
		for _, en := range r.channels[i].entries {
			if en.Page == page && en.State != Gone {
				return en
			}
		}
	}
	return nil
}
