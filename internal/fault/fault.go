package fault

import (
	"fmt"
	"math/rand"
	"strings"

	"nwcache/internal/obs"
)

// Policy selects what "swap-out complete" means on the NWCache machine,
// i.e. when the page frame may be reused.
type Policy int

// Recovery policies.
const (
	// Aggressive is the paper's design: the frame is freed the moment the
	// page is circulating on the ring. Fast, but a crash before drain
	// loses the only up-to-date copy.
	Aggressive Policy = iota
	// Conservative holds the frame until the disk controller ACKs the
	// drained page; a voided ring entry is resent over the mesh from the
	// still-held frame, so no data is ever lost.
	Conservative
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	if p == Conservative {
		return "conservative"
	}
	return "aggressive"
}

// ParsePolicy reads a policy name; "" selects the paper default.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "aggressive":
		return Aggressive, nil
	case "conservative":
		return Conservative, nil
	}
	return Aggressive, fmt.Errorf("fault: unknown recovery policy %q (have aggressive, conservative)", s)
}

// Stats counts every injected fault and its recovery outcome. All fields
// are plain integers updated from single-threaded simulation code; the
// struct is comparable, so tests can diff whole snapshots.
type Stats struct {
	// Disk layer.
	DiskReadErrors   uint64 // transient read errors injected
	DiskWriteErrors  uint64 // transient write errors injected
	DiskRetries      uint64 // retry attempts (after backoff)
	DiskReadGiveUps  uint64 // reads that exhausted the retry budget
	DiskWriteGiveUps uint64 // writes that exhausted the retry budget
	BadBlockRemaps   uint64 // accesses redirected to a spare block
	DegradedAccs     uint64 // media accesses inside a degraded window

	// Ring layer.
	RingCorruptions uint64 // drains that failed CRC and waited a re-pass
	OutageFallbacks uint64 // swap-outs rerouted to the mesh by an outage

	// Node/mesh layer.
	NodeCrashes    uint64 // crash events fired
	VoidedPages    uint64 // ring-resident dirty pages voided by crashes
	LostPages      uint64 // voided pages with no surviving copy (Aggressive)
	RecoveredPages uint64 // voided pages resent to disk (Conservative)
	MeshReroutes   uint64 // messages detoured YX around a flapped link
	MeshStalls     uint64 // messages stalled with both routes cut
}

// Injector executes a Plan against one machine. It owns a dedicated PRNG
// stream seeded independently of the workload, so attaching an injector
// with an empty plan changes nothing, and a fixed plan + seed replays an
// identical failure sequence. All methods are nil-receiver safe — a nil
// *Injector is the disabled state and injects nothing — and none of them
// may be called concurrently (simulation code is single-threaded).
type Injector struct {
	// Policy is the recovery policy the machine layer consults.
	Policy Policy
	// Stats is the running fault/recovery account.
	Stats Stats

	plan *Plan
	seed int64
	rng  *rand.Rand

	bad  map[badKey]bool
	vuln int64 // pages currently in the ring's loss window

	// Observation handles (nil until Observe wires them).
	hRetryBackoff *obs.Histogram // pcycles slept per retry backoff
	hVulnWindow   *obs.Histogram // insert-to-release window per ring page
	hRecovery     *obs.Histogram // pcycles to resend one voided page
	tgVuln        *obs.TimeGauge // vulnerable (un-ACKed ring) pages over time
}

type badKey struct {
	disk  int
	block int64
}

// spareSlip is the block-number offset of the spare a bad block remaps
// to: the controller slips the access to a nearby spare track, so the
// remapped access pays a slightly longer seek forever after.
const spareSlip = 7

// NewInjector builds an injector for the plan (nil = empty) with its own
// PRNG stream and the given recovery policy.
func NewInjector(plan *Plan, seed int64, policy Policy) *Injector {
	if plan == nil {
		plan = &Plan{}
	}
	i := &Injector{
		Policy: policy,
		plan:   plan,
		seed:   seed,
		rng:    rand.New(rand.NewSource(seed)),
	}
	if len(plan.BadBlocks) > 0 {
		i.bad = make(map[badKey]bool, len(plan.BadBlocks))
		for _, b := range plan.BadBlocks {
			i.bad[badKey{b.Disk, b.Block}] = true
		}
	}
	return i
}

// Plan returns the injector's plan (nil injector: an empty plan).
func (i *Injector) Plan() *Plan {
	if i == nil {
		return &Plan{}
	}
	return i.plan
}

// Seed returns the fault PRNG seed.
func (i *Injector) Seed() int64 {
	if i == nil {
		return 0
	}
	return i.seed
}

// draw consumes one random number iff rate is positive, so an empty (or
// partially empty) plan leaves the stream untouched for the faults that
// are configured.
func (i *Injector) draw(rate float64) bool {
	return rate > 0 && i.rng.Float64() < rate
}

// --- disk layer ---

// DiskReadError decides whether this media read attempt fails transiently.
func (i *Injector) DiskReadError() bool {
	if i == nil || !i.draw(i.plan.DiskRead.Rate) {
		return false
	}
	i.Stats.DiskReadErrors++
	return true
}

// DiskWriteError decides whether this media write attempt fails transiently.
func (i *Injector) DiskWriteError() bool {
	if i == nil || !i.draw(i.plan.DiskWrite.Rate) {
		return false
	}
	i.Stats.DiskWriteErrors++
	return true
}

// RetrySpec returns the retry budget and initial backoff for a read
// (read=true) or write media access.
func (i *Injector) RetrySpec(read bool) (retries int, backoff int64) {
	if i == nil {
		return 0, 0
	}
	s := i.plan.DiskWrite
	if read {
		s = i.plan.DiskRead
	}
	return s.Retries, s.Backoff
}

// NoteRetry accounts one backoff-then-retry of `slept` pcycles.
func (i *Injector) NoteRetry(slept int64) {
	if i == nil {
		return
	}
	i.Stats.DiskRetries++
	i.hRetryBackoff.Observe(slept)
}

// NoteGiveUp accounts a media access that exhausted its retry budget.
func (i *Injector) NoteGiveUp(read bool) {
	if i == nil {
		return
	}
	if read {
		i.Stats.DiskReadGiveUps++
	} else {
		i.Stats.DiskWriteGiveUps++
	}
}

// RemapBlock redirects an access to a permanently bad block onto its
// spare, counting the remap; good blocks pass through unchanged.
func (i *Injector) RemapBlock(disk int, block int64) int64 {
	if i == nil || i.bad == nil {
		return block
	}
	if !i.bad[badKey{disk, block}] && !i.bad[badKey{-1, block}] {
		return block
	}
	i.Stats.BadBlockRemaps++
	return block + spareSlip
}

// DegradeMult returns the latency multiplier active for disk at time now
// (1 when healthy) and counts the degraded access.
func (i *Injector) DegradeMult(disk int, now int64) int64 {
	if i == nil {
		return 1
	}
	for _, d := range i.plan.Degraded {
		if (d.Disk == -1 || d.Disk == disk) && now >= d.From && now < d.Until {
			i.Stats.DegradedAccs++
			return d.Mult
		}
	}
	return 1
}

// --- ring layer ---

// DrainCorrupted decides whether the page just snooped by the NWCache
// interface failed its check and must wait for another circulation.
func (i *Injector) DrainCorrupted() bool {
	if i == nil || !i.draw(i.plan.CorruptRate) {
		return false
	}
	i.Stats.RingCorruptions++
	return true
}

// RingTxDown reports whether node's ring transmitter is inside an outage
// window at time now.
func (i *Injector) RingTxDown(node int, now int64) bool {
	if i == nil {
		return false
	}
	for _, o := range i.plan.Outages {
		if (o.Node == -1 || o.Node == node) && now >= o.From && now < o.Until {
			return true
		}
	}
	return false
}

// NoteOutageFallback accounts one swap-out pushed onto the mesh path.
func (i *Injector) NoteOutageFallback() {
	if i != nil {
		i.Stats.OutageFallbacks++
	}
}

// NoteRingInsert opens one page's vulnerability window (it now lives only
// on the volatile ring).
func (i *Injector) NoteRingInsert(now int64) {
	if i == nil {
		return
	}
	i.vuln++
	i.tgVuln.Set(now, i.vuln)
}

// NoteRingRelease closes a page's vulnerability window normally (drained
// to disk or victim-read back into memory).
func (i *Injector) NoteRingRelease(now, insertedAt int64) {
	if i == nil {
		return
	}
	i.vuln--
	i.tgVuln.Set(now, i.vuln)
	i.hVulnWindow.Observe(now - insertedAt)
}

// --- node/mesh layer ---

// NoteCrash accounts one I/O-node crash event.
func (i *Injector) NoteCrash() {
	if i != nil {
		i.Stats.NodeCrashes++
	}
}

// NoteVoided closes a page's vulnerability window by force: the crash
// voided its only ring copy.
func (i *Injector) NoteVoided(now, insertedAt int64) {
	if i == nil {
		return
	}
	i.Stats.VoidedPages++
	i.vuln--
	i.tgVuln.Set(now, i.vuln)
	i.hVulnWindow.Observe(now - insertedAt)
}

// NoteLost accounts a voided page with no surviving copy (Aggressive).
func (i *Injector) NoteLost() {
	if i != nil {
		i.Stats.LostPages++
	}
}

// NoteRecovered accounts a voided page resent to disk after `lat` pcycles
// (Conservative).
func (i *Injector) NoteRecovered(lat int64) {
	if i == nil {
		return
	}
	i.Stats.RecoveredPages++
	i.hRecovery.Observe(lat)
}

// HasFlaps reports whether the plan contains mesh link flaps (the mesh
// keeps its allocation-free fast path when it does not).
func (i *Injector) HasFlaps() bool { return i != nil && len(i.plan.Flaps) > 0 }

// LinkDownUntil returns the end of the flap window covering the link out
// of node in direction dir at time `at`, or 0 when the link is up.
func (i *Injector) LinkDownUntil(node, dir int, at int64) int64 {
	if i == nil {
		return 0
	}
	for _, f := range i.plan.Flaps {
		if f.Node == node && f.Dir == dir && at >= f.From && at < f.Until {
			return f.Until
		}
	}
	return 0
}

// NoteReroute accounts one message detoured onto its YX path.
func (i *Injector) NoteReroute() {
	if i != nil {
		i.Stats.MeshReroutes++
	}
}

// NoteStall accounts one message stalled with both routes cut.
func (i *Injector) NoteStall() {
	if i != nil {
		i.Stats.MeshStalls++
	}
}

// VulnerablePages returns how many pages currently live only on the ring.
func (i *Injector) VulnerablePages() int64 {
	if i == nil {
		return 0
	}
	return i.vuln
}

// Observe wires the injector into an obs scope: every Stats counter as a
// pull-based probe plus live histograms for retry backoff, vulnerability
// windows, and recovery latency, and a simulated-time gauge of pages in
// the loss window. No-op on a nil scope or nil injector.
func (i *Injector) Observe(sc *obs.Scope) {
	if i == nil || sc == nil {
		return
	}
	u := func(v *uint64) func() int64 { return func() int64 { return int64(*v) } }
	dsc := sc.Scope("disk")
	dsc.ProbeCounter("read_errors", u(&i.Stats.DiskReadErrors))
	dsc.ProbeCounter("write_errors", u(&i.Stats.DiskWriteErrors))
	dsc.ProbeCounter("retries", u(&i.Stats.DiskRetries))
	dsc.ProbeCounter("read_giveups", u(&i.Stats.DiskReadGiveUps))
	dsc.ProbeCounter("write_giveups", u(&i.Stats.DiskWriteGiveUps))
	dsc.ProbeCounter("bad_block_remaps", u(&i.Stats.BadBlockRemaps))
	dsc.ProbeCounter("degraded_accesses", u(&i.Stats.DegradedAccs))
	i.hRetryBackoff = dsc.Histogram("retry_backoff_pcycles")
	rsc := sc.Scope("ring")
	rsc.ProbeCounter("corruptions", u(&i.Stats.RingCorruptions))
	rsc.ProbeCounter("outage_fallbacks", u(&i.Stats.OutageFallbacks))
	i.hVulnWindow = rsc.Histogram("vuln_window_pcycles")
	i.tgVuln = rsc.TimeGauge("vulnerable_pages")
	nsc := sc.Scope("node")
	nsc.ProbeCounter("crashes", u(&i.Stats.NodeCrashes))
	nsc.ProbeCounter("voided_pages", u(&i.Stats.VoidedPages))
	nsc.ProbeCounter("lost_pages", u(&i.Stats.LostPages))
	nsc.ProbeCounter("recovered_pages", u(&i.Stats.RecoveredPages))
	i.hRecovery = nsc.Histogram("recovery_pcycles")
	msc := sc.Scope("mesh")
	msc.ProbeCounter("reroutes", u(&i.Stats.MeshReroutes))
	msc.ProbeCounter("stalls", u(&i.Stats.MeshStalls))
}

// Summary renders the account as a short human-readable block (what
// cmd/nwsim prints after a faulted run).
func (i *Injector) Summary() string {
	if i == nil {
		return "faults: disabled"
	}
	s := &i.Stats
	var sb strings.Builder
	fmt.Fprintf(&sb, "faults (policy=%s, seed=%d):\n", i.Policy, i.seed)
	fmt.Fprintf(&sb, "  disk:  %d read / %d write errors, %d retries, %d give-ups, %d remaps, %d degraded accesses\n",
		s.DiskReadErrors, s.DiskWriteErrors, s.DiskRetries,
		s.DiskReadGiveUps+s.DiskWriteGiveUps, s.BadBlockRemaps, s.DegradedAccs)
	fmt.Fprintf(&sb, "  ring:  %d corrupt drains, %d outage fallbacks\n",
		s.RingCorruptions, s.OutageFallbacks)
	fmt.Fprintf(&sb, "  node:  %d crashes, %d voided, %d lost, %d recovered\n",
		s.NodeCrashes, s.VoidedPages, s.LostPages, s.RecoveredPages)
	fmt.Fprintf(&sb, "  mesh:  %d reroutes, %d stalls", s.MeshReroutes, s.MeshStalls)
	return sb.String()
}
