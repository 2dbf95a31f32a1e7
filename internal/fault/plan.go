// Package fault is the simulator's deterministic fault-injection engine.
//
// A Plan is a declarative spec of every failure a run will experience,
// parsed from a small line-based language (one directive per line, see
// Parse). An Injector executes a plan with its own seeded PRNG stream —
// separate from the workload's — so the same plan + seed replays the
// exact same failure sequence, and a fault-free run never consumes a
// single random draw (fixed-seed output stays byte-identical with the
// injector absent or attached with an empty plan).
//
// Failures are injected at three layers:
//
//   - disk: transient read/write errors (bounded retry with exponential
//     backoff in the controller), permanent bad blocks (remapped to a
//     nearby spare, paying the slipped seek forever), and degraded-mode
//     windows that multiply media access latency;
//   - optical ring: per-drain corruption detected at the NWCache
//     interface (retransmit = wait another circulation), and
//     whole-channel outage windows that force swap-outs back onto the
//     standard mesh path;
//   - node/mesh: I/O-node crashes that void every dirty page resident on
//     the volatile ring, and mesh link flaps with YX reroute.
//
// What a void means depends on the recovery Policy: the paper-default
// Aggressive policy freed the frame at ring insert, so voided pages are
// data loss; the Conservative policy holds the frame until the disk ACK
// and resends voided pages over the mesh — zero loss, at a durability
// cost this package's accounting makes measurable.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"nwcache/internal/param"
)

// Link directions out of a mesh node. Values match internal/mesh's Dir
// constants by convention (fault cannot import mesh: mesh imports fault).
const (
	DirEast = iota
	DirWest
	DirNorth
	DirSouth
	numDirs
)

var dirNames = [numDirs]string{"east", "west", "north", "south"}

// ErrorSpec describes a transient media error process: each access fails
// independently with Rate, and the controller retries up to Retries times
// with exponential backoff starting at Backoff pcycles.
type ErrorSpec struct {
	Rate    float64
	Retries int
	Backoff int64
}

// BadBlock marks one permanently unreadable disk block; accesses are
// remapped to a nearby spare. Disk -1 means every disk.
type BadBlock struct {
	Disk  int
	Block int64
}

// Degraded is a latency-degradation window: media accesses on Disk
// (-1 = all) between From and Until take Mult times as long.
type Degraded struct {
	Disk        int
	From, Until int64
	Mult        int64
}

// Outage takes a node's ring transmitter down between From and Until;
// swap-outs issued in the window fall back to the standard mesh path.
// Node -1 means every node.
type Outage struct {
	Node        int
	From, Until int64
}

// Crash is an I/O-node failure at time At: every dirty page circulating
// on the (volatile) ring at that instant is voided.
type Crash struct {
	Node int
	At   int64
}

// Flap takes one unidirectional mesh link (out of Node in direction Dir)
// down between From and Until; traffic reroutes YX, or stalls when both
// routes are cut.
type Flap struct {
	Node, Dir   int
	From, Until int64
}

// Plan is a complete, deterministic failure schedule.
type Plan struct {
	DiskRead    ErrorSpec
	DiskWrite   ErrorSpec
	BadBlocks   []BadBlock
	Degraded    []Degraded
	CorruptRate float64 // per-drain ring corruption probability
	Outages     []Outage
	Crashes     []Crash
	Flaps       []Flap
}

// Parse reads a plan from its textual spec: one directive per line, blank
// lines and #-comments ignored. Directives:
//
//	disk read-error rate=R [retries=N] [backoff=P]
//	disk write-error rate=R [retries=N] [backoff=P]
//	disk bad-block disk=D block=B          (disk=* for all)
//	disk degraded disk=D from=T until=T mult=M
//	ring corrupt rate=R
//	ring outage node=N from=T until=T      (node=* for all)
//	node crash node=N at=T
//	mesh flap node=N dir=east|west|north|south from=T until=T
//
// Omitted retries=/backoff= keys default to the machine parameters
// (param.Default().FaultRetries / .FaultBackoff): the controller's retry
// firmware is a machine property, not a per-plan one. Times are pcycles.
func Parse(text string) (*Plan, error) {
	def := param.Default()
	p := &Plan{}
	for li, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("fault: line %d: incomplete directive %q", li+1, line)
		}
		kv, err := parseKV(fields[2:], li+1)
		if err != nil {
			return nil, err
		}
		directive := fields[0] + " " + fields[1]
		switch directive {
		case "disk read-error", "disk write-error":
			spec := ErrorSpec{Retries: def.FaultRetries, Backoff: def.FaultBackoff}
			if spec.Rate, err = kv.rate("rate"); err != nil {
				return nil, lineErr(li, err)
			}
			if v, ok := kv["retries"]; ok {
				if spec.Retries, err = atoiNonNeg(v); err != nil {
					return nil, lineErr(li, fmt.Errorf("retries: %v", err))
				}
			}
			if v, ok := kv["backoff"]; ok {
				if spec.Backoff, err = atoi64NonNeg(v); err != nil {
					return nil, lineErr(li, fmt.Errorf("backoff: %v", err))
				}
			}
			if directive == "disk read-error" {
				p.DiskRead = spec
			} else {
				p.DiskWrite = spec
			}
		case "disk bad-block":
			var b BadBlock
			if b.Disk, err = kv.node("disk"); err != nil {
				return nil, lineErr(li, err)
			}
			if b.Block, err = kv.time("block"); err != nil {
				return nil, lineErr(li, err)
			}
			p.BadBlocks = append(p.BadBlocks, b)
		case "disk degraded":
			var d Degraded
			if d.Disk, err = kv.node("disk"); err != nil {
				return nil, lineErr(li, err)
			}
			if d.From, d.Until, err = kv.window(); err != nil {
				return nil, lineErr(li, err)
			}
			if d.Mult, err = kv.time("mult"); err != nil {
				return nil, lineErr(li, err)
			}
			if d.Mult < 1 {
				return nil, lineErr(li, fmt.Errorf("mult=%d must be >= 1", d.Mult))
			}
			p.Degraded = append(p.Degraded, d)
		case "ring corrupt":
			if p.CorruptRate, err = kv.rate("rate"); err != nil {
				return nil, lineErr(li, err)
			}
		case "ring outage":
			var o Outage
			if o.Node, err = kv.node("node"); err != nil {
				return nil, lineErr(li, err)
			}
			if o.From, o.Until, err = kv.window(); err != nil {
				return nil, lineErr(li, err)
			}
			p.Outages = append(p.Outages, o)
		case "node crash":
			var c Crash
			if c.Node, err = kv.node("node"); err != nil {
				return nil, lineErr(li, err)
			}
			if c.Node < 0 {
				return nil, lineErr(li, fmt.Errorf("node crash needs a specific node, not *"))
			}
			if c.At, err = kv.time("at"); err != nil {
				return nil, lineErr(li, err)
			}
			p.Crashes = append(p.Crashes, c)
		case "mesh flap":
			var f Flap
			if f.Node, err = kv.node("node"); err != nil {
				return nil, lineErr(li, err)
			}
			if f.Node < 0 {
				return nil, lineErr(li, fmt.Errorf("mesh flap needs a specific node, not *"))
			}
			v, ok := kv["dir"]
			if !ok {
				return nil, lineErr(li, fmt.Errorf("missing dir="))
			}
			f.Dir = -1
			for d, name := range dirNames {
				if v == name {
					f.Dir = d
				}
			}
			if f.Dir < 0 {
				return nil, lineErr(li, fmt.Errorf("unknown dir %q (have east/west/north/south)", v))
			}
			if f.From, f.Until, err = kv.window(); err != nil {
				return nil, lineErr(li, err)
			}
			p.Flaps = append(p.Flaps, f)
		default:
			return nil, fmt.Errorf("fault: line %d: unknown directive %q", li+1, directive)
		}
	}
	// Canonical order: deterministic event scheduling must not depend on
	// how the author sorted their lines.
	sort.SliceStable(p.BadBlocks, func(i, j int) bool {
		a, b := p.BadBlocks[i], p.BadBlocks[j]
		return a.Disk < b.Disk || (a.Disk == b.Disk && a.Block < b.Block)
	})
	sort.SliceStable(p.Crashes, func(i, j int) bool { return p.Crashes[i].At < p.Crashes[j].At })
	sort.SliceStable(p.Outages, func(i, j int) bool { return p.Outages[i].From < p.Outages[j].From })
	sort.SliceStable(p.Degraded, func(i, j int) bool { return p.Degraded[i].From < p.Degraded[j].From })
	sort.SliceStable(p.Flaps, func(i, j int) bool { return p.Flaps[i].From < p.Flaps[j].From })
	return p, nil
}

// String renders the plan in the canonical spec syntax; Parse(p.String())
// reproduces p exactly (the round-trip property the tests pin).
func (p *Plan) String() string {
	var sb strings.Builder
	spec := func(kind string, s ErrorSpec) {
		if s.Rate > 0 {
			fmt.Fprintf(&sb, "disk %s rate=%g retries=%d backoff=%d\n",
				kind, s.Rate, s.Retries, s.Backoff)
		}
	}
	spec("read-error", p.DiskRead)
	spec("write-error", p.DiskWrite)
	for _, b := range p.BadBlocks {
		fmt.Fprintf(&sb, "disk bad-block disk=%s block=%d\n", nodeStr(b.Disk), b.Block)
	}
	for _, d := range p.Degraded {
		fmt.Fprintf(&sb, "disk degraded disk=%s from=%d until=%d mult=%d\n",
			nodeStr(d.Disk), d.From, d.Until, d.Mult)
	}
	if p.CorruptRate > 0 {
		fmt.Fprintf(&sb, "ring corrupt rate=%g\n", p.CorruptRate)
	}
	for _, o := range p.Outages {
		fmt.Fprintf(&sb, "ring outage node=%s from=%d until=%d\n", nodeStr(o.Node), o.From, o.Until)
	}
	for _, c := range p.Crashes {
		fmt.Fprintf(&sb, "node crash node=%d at=%d\n", c.Node, c.At)
	}
	for _, f := range p.Flaps {
		fmt.Fprintf(&sb, "mesh flap node=%d dir=%s from=%d until=%d\n",
			f.Node, dirNames[f.Dir], f.From, f.Until)
	}
	return sb.String()
}

func nodeStr(n int) string {
	if n < 0 {
		return "*"
	}
	return strconv.Itoa(n)
}

func lineErr(li int, err error) error {
	return fmt.Errorf("fault: line %d: %v", li+1, err)
}

// kvMap holds one directive's key=value arguments.
type kvMap map[string]string

func parseKV(fields []string, line int) (kvMap, error) {
	kv := make(kvMap, len(fields))
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("fault: line %d: malformed argument %q (want key=value)", line, f)
		}
		if _, dup := kv[k]; dup {
			return nil, fmt.Errorf("fault: line %d: duplicate key %q", line, k)
		}
		kv[k] = v
	}
	return kv, nil
}

func (kv kvMap) rate(key string) (float64, error) {
	v, ok := kv[key]
	if !ok {
		return 0, fmt.Errorf("missing %s=", key)
	}
	r, err := strconv.ParseFloat(v, 64)
	if err != nil || r < 0 || r > 1 {
		return 0, fmt.Errorf("%s=%s must be a probability in [0,1]", key, v)
	}
	return r, nil
}

// node parses a node/disk id, where "*" means all (-1).
func (kv kvMap) node(key string) (int, error) {
	v, ok := kv[key]
	if !ok {
		return 0, fmt.Errorf("missing %s=", key)
	}
	if v == "*" {
		return -1, nil
	}
	return atoiNonNeg(v)
}

func (kv kvMap) time(key string) (int64, error) {
	v, ok := kv[key]
	if !ok {
		return 0, fmt.Errorf("missing %s=", key)
	}
	n, err := atoi64NonNeg(v)
	if err != nil {
		return 0, fmt.Errorf("%s: %v", key, err)
	}
	return n, nil
}

// window parses the from=/until= pair and checks its orientation.
func (kv kvMap) window() (from, until int64, err error) {
	if from, err = kv.time("from"); err != nil {
		return
	}
	if until, err = kv.time("until"); err != nil {
		return
	}
	if until <= from {
		err = fmt.Errorf("window until=%d must be after from=%d", until, from)
	}
	return
}

func atoiNonNeg(v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%q is not a non-negative integer", v)
	}
	return n, nil
}

func atoi64NonNeg(v string) (int64, error) {
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%q is not a non-negative integer", v)
	}
	return n, nil
}
