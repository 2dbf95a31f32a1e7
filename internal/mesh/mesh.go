// Package mesh models the multiprocessor's wormhole-routed 2D mesh
// interconnection network with dimension-order (XY) routing.
//
// Each unidirectional link and each node's injection/ejection port is a
// FCFS sim.Resource; a message reserves the ports and every link on its
// path with cut-through pipelining (sim.Pipeline), so uncontended latency
// is hops·hopLatency + transfer time while every link is still charged the
// full occupancy for contention purposes. This mirrors the paper's
// "network contention fully modeled" claim at the granularity relevant to
// page traffic.
//
// XY routes are deterministic, so every (src, dst) resource path is
// precomputed at construction; Transit walks the path with the same
// reservation arithmetic as sim.Pipeline without materializing a stage
// slice, and AppendPathStages emits stages into a caller-provided buffer —
// the per-message cost is zero heap allocations.
package mesh

import (
	"fmt"

	"nwcache/internal/fault"
	"nwcache/internal/obs"
	"nwcache/internal/param"
	"nwcache/internal/sim"
)

// Dir is a unidirectional link direction.
type Dir int

// Link directions out of a node.
const (
	East Dir = iota
	West
	North
	South
	numDirs
)

// Mesh is a W x H wormhole mesh of nodes 0..W*H-1, node n at
// (n % W, n / W).
type Mesh struct {
	e      *sim.Engine
	w, h   int
	hopLat int64
	bwMBs  float64

	links  [][]*sim.Resource // [node][dir], nil at edges
	inject []*sim.Resource   // per-node injection port (NI out)
	eject  []*sim.Resource   // per-node ejection port (NI in)

	// paths[src*n+dst] is the full resource sequence a message crosses:
	// inject[src], each XY-route link, eject[dst]. Shared slices into one
	// backing array, built once at New.
	paths [][]*sim.Resource

	// Messages counts delivered messages; Bytes counts payload bytes.
	Messages uint64
	Bytes    int64

	// hWait, when observation is wired (Observe), records how long each
	// message waited for its injection port beyond its earliest start —
	// the mesh's contention histogram. Nil (one dead branch) otherwise.
	hWait *obs.Histogram

	// Fault injection. flt is nil for a perfect network; the route
	// metadata below is built only when the plan contains link flaps, so
	// the flap-free fast path stays allocation-free and branch-cheap.
	flt      *fault.Injector
	flapped  bool              // plan contains link flaps: take the faulty-path slow path
	pathHops [][]int32         // per (src,dst): XY link ids (node*numDirs+dir)
	yxPaths  [][]*sim.Resource // per (src,dst): YX fallback resource path
	yxHops   [][]int32         // per (src,dst): YX link ids
}

// New builds the mesh from the configuration.
func New(e *sim.Engine, cfg param.Config) *Mesh {
	m := &Mesh{
		e:      e,
		w:      cfg.MeshW,
		h:      cfg.MeshH,
		hopLat: cfg.HopLatency,
		bwMBs:  cfg.NetMBs,
	}
	n := m.w * m.h
	m.links = make([][]*sim.Resource, n)
	m.inject = make([]*sim.Resource, n)
	m.eject = make([]*sim.Resource, n)
	for i := 0; i < n; i++ {
		m.links[i] = make([]*sim.Resource, numDirs)
		x, y := i%m.w, i/m.w
		if x+1 < m.w {
			m.links[i][East] = sim.NewResource(e, fmt.Sprintf("link%d.E", i))
		}
		if x > 0 {
			m.links[i][West] = sim.NewResource(e, fmt.Sprintf("link%d.W", i))
		}
		if y+1 < m.h {
			m.links[i][North] = sim.NewResource(e, fmt.Sprintf("link%d.N", i))
		}
		if y > 0 {
			m.links[i][South] = sim.NewResource(e, fmt.Sprintf("link%d.S", i))
		}
		m.inject[i] = sim.NewResource(e, fmt.Sprintf("ni%d.out", i))
		m.eject[i] = sim.NewResource(e, fmt.Sprintf("ni%d.in", i))
	}
	// Precompute every (src, dst) resource path into one flat backing array.
	total := 0
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			total += m.Hops(src, dst) + 2
		}
	}
	backing := make([]*sim.Resource, 0, total)
	m.paths = make([][]*sim.Resource, n*n)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			lo := len(backing)
			backing = append(backing, m.inject[src])
			for _, h := range m.Route(src, dst) {
				node, dir := h/int(numDirs), Dir(h%int(numDirs))
				res := m.links[node][dir]
				if res == nil {
					panic(fmt.Sprintf("mesh: route used missing link node %d dir %d", node, dir))
				}
				backing = append(backing, res)
			}
			backing = append(backing, m.eject[dst])
			m.paths[src*n+dst] = backing[lo:len(backing):len(backing)]
		}
	}
	return m
}

// Nodes returns the node count.
func (m *Mesh) Nodes() int { return m.w * m.h }

// SetFaults attaches a fault injector. When the plan contains mesh link
// flaps, the per-path link metadata and the YX-routed fallback paths are
// built so Transit/AppendPathStages can detour (or stall) around down
// links; without flaps the precomputed XY fast path is untouched.
func (m *Mesh) SetFaults(inj *fault.Injector) {
	m.flt = inj
	m.flapped = inj.HasFlaps()
	if m.flapped && m.pathHops == nil {
		m.buildFaultRoutes()
	}
}

// buildFaultRoutes precomputes, for every (src, dst) pair, the XY path's
// link identities and the dimension-swapped YX fallback path. Built once,
// only when a plan with link flaps is attached.
func (m *Mesh) buildFaultRoutes() {
	n := m.Nodes()
	m.pathHops = make([][]int32, n*n)
	m.yxPaths = make([][]*sim.Resource, n*n)
	m.yxHops = make([][]int32, n*n)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			i := src*n + dst
			xy := m.Route(src, dst)
			hops := make([]int32, len(xy))
			for k, h := range xy {
				hops[k] = int32(h)
			}
			m.pathHops[i] = hops
			yx := m.routeYX(src, dst)
			m.yxHops[i] = make([]int32, len(yx))
			path := make([]*sim.Resource, 0, len(yx)+2)
			path = append(path, m.inject[src])
			for k, h := range yx {
				m.yxHops[i][k] = int32(h)
				path = append(path, m.links[h/int(numDirs)][Dir(h%int(numDirs))])
			}
			m.yxPaths[i] = append(path, m.eject[dst])
		}
	}
}

// routeYX returns the dimension-swapped (Y first, then X) route — the
// deterministic fallback when a link on the XY route is flapped.
func (m *Mesh) routeYX(src, dst int) []int {
	var hops []int
	cur := src
	cx, cy := cur%m.w, cur/m.w
	dx, dy := dst%m.w, dst/m.w
	for cy != dy {
		if cy < dy {
			hops = append(hops, cur*int(numDirs)+int(North))
			cy++
		} else {
			hops = append(hops, cur*int(numDirs)+int(South))
			cy--
		}
		cur = cy*m.w + cx
	}
	for cx != dx {
		if cx < dx {
			hops = append(hops, cur*int(numDirs)+int(East))
			cx++
		} else {
			hops = append(hops, cur*int(numDirs)+int(West))
			cx--
		}
		cur = cy*m.w + cx
	}
	return hops
}

// downUntil returns the latest flap-window end covering any link of the
// hop list at time `at`, or 0 when the whole path is up.
func (m *Mesh) downUntil(hops []int32, at sim.Time) sim.Time {
	var worst sim.Time
	for _, h := range hops {
		if u := m.flt.LinkDownUntil(int(h)/int(numDirs), int(h)%int(numDirs), at); u > worst {
			worst = u
		}
	}
	return worst
}

// faultyPath picks the resource path for a message departing around time
// `at` under link flaps: the XY route if it is up, the YX detour if only
// XY is cut (counted as a reroute), or the XY route with a stall until
// its flap window closes when both are cut.
func (m *Mesh) faultyPath(src, dst int, at sim.Time) (path []*sim.Resource, stall sim.Time) {
	i := src*m.Nodes() + dst
	untilXY := m.downUntil(m.pathHops[i], at)
	if untilXY == 0 {
		return m.paths[i], 0
	}
	if m.downUntil(m.yxHops[i], at) == 0 {
		m.flt.NoteReroute()
		return m.yxPaths[i], 0
	}
	m.flt.NoteStall()
	return m.paths[i], untilXY - at
}

// Route returns the XY route from src to dst as a sequence of (node, dir)
// hops. An empty route means src == dst. Route allocates; the hot paths use
// the precomputed resource paths instead (Transit, AppendPathStages).
func (m *Mesh) Route(src, dst int) []int {
	if src < 0 || src >= m.Nodes() || dst < 0 || dst >= m.Nodes() {
		panic(fmt.Sprintf("mesh: route %d->%d out of range", src, dst))
	}
	var hops []int
	cur := src
	cx, cy := cur%m.w, cur/m.w
	dx, dy := dst%m.w, dst/m.w
	for cx != dx {
		if cx < dx {
			hops = append(hops, cur*int(numDirs)+int(East))
			cx++
		} else {
			hops = append(hops, cur*int(numDirs)+int(West))
			cx--
		}
		cur = cy*m.w + cx
	}
	for cy != dy {
		if cy < dy {
			hops = append(hops, cur*int(numDirs)+int(North))
			cy++
		} else {
			hops = append(hops, cur*int(numDirs)+int(South))
			cy--
		}
		cur = cy*m.w + cx
	}
	return hops
}

// Hops returns the XY hop count between two nodes.
func (m *Mesh) Hops(src, dst int) int {
	sx, sy := src%m.w, src/m.w
	dx, dy := dst%m.w, dst/m.w
	h := sx - dx
	if h < 0 {
		h = -h
	}
	v := sy - dy
	if v < 0 {
		v = -v
	}
	return h + v
}

// path returns the precomputed resource sequence for src -> dst.
func (m *Mesh) path(src, dst int) []*sim.Resource {
	n := m.Nodes()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		panic(fmt.Sprintf("mesh: path %d->%d out of range", src, dst))
	}
	return m.paths[src*n+dst]
}

// AppendPathStages appends the pipeline stages a message of `bytes` crosses
// from src to dst (injection port, each link on the XY route, ejection
// port) to buf and returns the extended slice. Callers reuse a scratch
// buffer and may surround the mesh stages with further stages (e.g. a
// memory bus at the source and an I/O bus at the destination) before
// running sim.Pipeline.
func (m *Mesh) AppendPathStages(buf []sim.Stage, src, dst, bytes int) []sim.Stage {
	occupy := param.TransferPcycles(int64(bytes), m.bwMBs)
	path := m.path(src, dst)
	var stall sim.Time
	if m.flapped {
		path, stall = m.faultyPath(src, dst, m.e.Now())
	}
	lo := len(buf)
	for _, res := range path {
		buf = append(buf, sim.Stage{Res: res, Occupy: occupy, Forward: m.hopLat})
	}
	if stall > 0 {
		// Both routes cut: the message sits at the source NI until the XY
		// flap window closes before entering the first link.
		buf[lo].Forward += stall
	}
	return buf
}

// PathStages returns the stages as a fresh slice. Prefer AppendPathStages
// on hot paths.
func (m *Mesh) PathStages(src, dst, bytes int) []sim.Stage {
	return m.AppendPathStages(make([]sim.Stage, 0, m.Hops(src, dst)+2), src, dst, bytes)
}

// Transit reserves the path for a message of `bytes` from src to dst
// beginning no earlier than `earliest`, and returns the simulated arrival
// time of the full payload at dst. It blocks nothing; callers schedule
// follow-up events at the returned time. Transit performs
// the same cut-through reservation arithmetic as sim.Pipeline directly over
// the precomputed path, with no per-call allocation.
func (m *Mesh) Transit(earliest sim.Time, src, dst, bytes int) (arrive sim.Time) {
	occupy := param.TransferPcycles(int64(bytes), m.bwMBs)
	path := m.path(src, dst)
	if m.flapped {
		var stall sim.Time
		path, stall = m.faultyPath(src, dst, earliest)
		earliest += stall
	}
	start := path[0].Reserve(earliest, occupy)
	arrive = start + occupy
	prevStart := start
	for _, res := range path[1:] {
		s := res.Reserve(prevStart+m.hopLat, occupy)
		if end := s + occupy; end > arrive {
			arrive = end
		}
		prevStart = s
	}
	m.Messages++
	m.Bytes += int64(bytes)
	if m.hWait != nil {
		m.hWait.Observe(start - earliest)
	}
	return arrive
}

// LinkBusy returns the aggregate busy time across all links (for
// contention reporting).
func (m *Mesh) LinkBusy() int64 {
	var total int64
	for _, dirs := range m.links {
		for _, r := range dirs {
			if r != nil {
				total += r.Busy
			}
		}
	}
	return total
}

// Observe wires the mesh into an obs scope: traffic totals and link
// occupancy as pull-based probes, plus a live histogram of injection
// wait (contention) per message. With a nil scope this is a no-op and
// Transit keeps its allocation-free, branch-predictable fast path.
func (m *Mesh) Observe(sc *obs.Scope) {
	if sc == nil {
		return
	}
	sc.ProbeCounter("messages", func() int64 { return int64(m.Messages) })
	sc.ProbeCounter("bytes", func() int64 { return m.Bytes })
	sc.ProbeCounter("link_busy_pcycles", func() int64 { return m.LinkBusy() })
	sc.ProbeGauge("link_util_max_pct", func() int64 {
		return int64(m.MaxLinkUtilization() * 100)
	})
	m.hWait = sc.Histogram("inject_wait")
}

// MaxLinkUtilization returns the highest per-link utilization.
func (m *Mesh) MaxLinkUtilization() float64 {
	var max float64
	for _, dirs := range m.links {
		for _, r := range dirs {
			if r != nil && r.Utilization() > max {
				max = r.Utilization()
			}
		}
	}
	return max
}
