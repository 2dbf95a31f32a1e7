// Package sweep is the scale-out sweep fabric: it turns a declarative
// grid spec (apps × machine kinds × prefetch modes × seeds × parameter
// axes × fault variants) into a deterministic cell list, partitions the
// list across shard processes, runs each shard with checkpoint/resume
// through a line-based append-only STATE file, persists every completed
// cell in a content-addressed result cache keyed on core.Cell.Key, and
// streams shard outputs into one merged manifest + NDJSON per sweep.
//
// The design targets parameter spaces of 10⁵–10⁶ cells: no stage holds
// the whole grid's results in memory (cells are enumerated lazily,
// submissions run through a bounded window, aggregation is a streaming
// merge whose summary pivot keeps two formatted numbers per cell), a
// killed sweep resumes exactly where it stopped (the STATE file is
// replayed and completed cells are skipped), and a repeated or
// overlapping sweep only pays for cells it has never run (the cache is
// consulted — and digest-verified — before any execution).
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"nwcache/internal/core"
	"nwcache/internal/param"
)

// FaultVariant is one fault-injection coordinate of the grid: a plan
// spec (internal/fault syntax, ";"-separated directives in the grid
// file), the injector seed, and the recovery policy. The zero value is
// the fault-free variant ("none").
type FaultVariant struct {
	Plan     string
	Seed     int64
	Recovery string
}

// none reports whether the variant requests no injection at all.
func (v FaultVariant) none() bool {
	return v.Plan == "" && v.Recovery == ""
}

// render emits the variant's canonical spec line body.
func (v FaultVariant) render() string {
	if v.none() {
		return "none"
	}
	var parts []string
	if v.Recovery != "" {
		parts = append(parts, "recovery="+v.Recovery)
	}
	if v.Seed != 0 {
		parts = append(parts, "seed="+strconv.FormatInt(v.Seed, 10))
	}
	if v.Plan != "" {
		parts = append(parts, "plan="+strings.ReplaceAll(v.Plan, "\n", "; "))
	}
	return strings.Join(parts, " ")
}

// ParamAxis is one swept configuration field: Field names a
// param.Config JSON field, Values are its JSON-encoded points. Axes
// cross in declaration order (the last axis varies fastest).
//
// A tuple axis moves several fields together: Field joins their names
// with "/" and each value joins one JSON point per field the same way
// ("Nodes/MeshW" with values "4/2", "8/4").
type ParamAxis struct {
	Field  string
	Values []string
}

// point splits the axis into its field names and the JSON points of
// value v, one per field. A single-field axis is one part, whatever v
// contains.
func (ax ParamAxis) point(v string) (fields, vals []string) {
	if !strings.Contains(ax.Field, "/") {
		return []string{ax.Field}, []string{v}
	}
	return strings.Split(ax.Field, "/"), strings.Split(v, "/")
}

// MinFree selects how the free-frame floor is chosen per cell.
type MinFree int

// MinFree policies: Paper applies core.PaperMinFree per (kind, mode)
// unless a MinFreeFrames param axis overrides it; Config keeps the base
// configuration's value.
const (
	MinFreePaper MinFree = iota
	MinFreeConfig
)

// Spec is a declarative sweep grid. Parse one from its textual form
// (see ParseSpec) or build it directly; Canon/Digest give it a stable
// identity that STATE files and manifests pin.
type Spec struct {
	Name  string
	Apps  []string
	Kinds []core.Kind
	Modes []core.PrefetchMode
	Seeds []int64

	Scale   float64
	MinFree MinFree
	// SeriesInterval, when > 0, samples per-cell time-series telemetry
	// at this pcycle interval; the series are stored in each cell's
	// cache entry and merged at sweep aggregation.
	SeriesInterval int64

	Params []ParamAxis
	Faults []FaultVariant

	base param.Config // memoized base config (built on first use)
	ok   bool
}

// ParseSpec reads a grid spec: one directive per line, "#" comments,
// blank lines ignored.
//
//	name smoke                  # optional sweep name
//	apps em3d,gauss             # default: every built-in application
//	kinds standard,nwcache      # default: both
//	modes naive,optimal         # default: naive,optimal
//	seeds 1..3                  # or 1,5,9; default: 1
//	scale 0.05                  # workload scale; default 1.0
//	minfree paper               # paper (default) or config
//	series 200000               # per-cell sampling interval; default off
//	param MinFreeFrames 2,8     # sweep a config field (JSON values)
//	param MeshW/MeshH 4/2,4/4   # move fields together (a tuple axis)
//	fault none                  # fault variants, one per line
//	fault recovery=conservative seed=3 plan=disk read-error rate=0.02; ring outage node=1 from=0 until=1e6
//
// Axes cross in a fixed order — app, kind, mode, seed, params
// (declaration order, last fastest), fault variant — so every spec
// enumerates its cells identically on every host.
func ParseSpec(text string) (*Spec, error) {
	s := &Spec{Scale: 1.0}
	var seenApps, seenKinds, seenModes, seenSeeds bool
	for li, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		word, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		bad := func(err error) (*Spec, error) {
			return nil, fmt.Errorf("sweep: spec line %d: %v", li+1, err)
		}
		if rest == "" {
			return bad(fmt.Errorf("directive %q needs a value", word))
		}
		var err error
		switch word {
		case "name":
			s.Name = rest
		case "apps":
			s.Apps = splitList(rest)
			seenApps = true
		case "kinds":
			for _, k := range splitList(rest) {
				kind, err := core.ParseKind(k)
				if err != nil {
					return bad(err)
				}
				s.Kinds = append(s.Kinds, kind)
			}
			seenKinds = true
		case "modes":
			for _, m := range splitList(rest) {
				mode, err := core.ParseMode(m)
				if err != nil {
					return bad(err)
				}
				s.Modes = append(s.Modes, mode)
			}
			seenModes = true
		case "seeds":
			if s.Seeds, err = parseSeeds(rest); err != nil {
				return bad(err)
			}
			seenSeeds = true
		case "scale":
			if s.Scale, err = strconv.ParseFloat(rest, 64); err != nil || s.Scale <= 0 {
				return bad(fmt.Errorf("bad scale %q", rest))
			}
		case "minfree":
			switch rest {
			case "paper":
				s.MinFree = MinFreePaper
			case "config":
				s.MinFree = MinFreeConfig
			default:
				return bad(fmt.Errorf("minfree must be paper or config, got %q", rest))
			}
		case "series":
			if s.SeriesInterval, err = strconv.ParseInt(rest, 10, 64); err != nil || s.SeriesInterval < 0 {
				return bad(fmt.Errorf("bad series interval %q", rest))
			}
		case "param":
			field, vals, ok := strings.Cut(rest, " ")
			if !ok {
				return bad(fmt.Errorf("param needs a field and a value list"))
			}
			s.Params = append(s.Params, ParamAxis{Field: field, Values: splitList(strings.TrimSpace(vals))})
		case "fault":
			v, err := parseFaultVariant(rest)
			if err != nil {
				return bad(err)
			}
			s.Faults = append(s.Faults, v)
		default:
			return bad(fmt.Errorf("unknown directive %q", word))
		}
	}
	if !seenApps {
		s.Apps = core.Apps()
	}
	if !seenKinds {
		s.Kinds = []core.Kind{core.Standard, core.NWCache}
	}
	if !seenModes {
		s.Modes = []core.PrefetchMode{core.Naive, core.Optimal}
	}
	if !seenSeeds {
		s.Seeds = []int64{1}
	}
	if len(s.Faults) == 0 {
		s.Faults = []FaultVariant{{}}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// ParseSpecFile reads a grid spec from path.
func ParseSpecFile(path string) (*Spec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseSpec(string(blob))
}

// parseFaultVariant reads one "fault" directive body: "none", or
// key=value tokens (recovery=, seed=) with an optional trailing
// "plan=<rest of line>" whose ";" separators become plan newlines.
func parseFaultVariant(rest string) (FaultVariant, error) {
	var v FaultVariant
	if rest == "none" {
		return v, nil
	}
	for rest != "" {
		var tok string
		if strings.HasPrefix(rest, "plan=") {
			tok, rest = rest, ""
		} else {
			tok, rest, _ = strings.Cut(rest, " ")
			rest = strings.TrimSpace(rest)
		}
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return v, fmt.Errorf("fault token %q is not key=value", tok)
		}
		switch key {
		case "recovery":
			v.Recovery = val
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return v, fmt.Errorf("bad fault seed %q", val)
			}
			v.Seed = n
		case "plan":
			lines := strings.Split(val, ";")
			for i := range lines {
				lines[i] = strings.TrimSpace(lines[i])
			}
			v.Plan = strings.Join(lines, "\n")
		default:
			return v, fmt.Errorf("unknown fault key %q", key)
		}
	}
	if v.none() {
		return v, fmt.Errorf("fault variant needs a plan or a recovery policy (or 'none')")
	}
	return v, nil
}

// parseSeeds accepts "a..b" ranges and comma lists.
func parseSeeds(text string) ([]int64, error) {
	if lo, hi, ok := strings.Cut(text, ".."); ok {
		a, err1 := strconv.ParseInt(lo, 10, 64)
		b, err2 := strconv.ParseInt(hi, 10, 64)
		if err1 != nil || err2 != nil || b < a {
			return nil, fmt.Errorf("bad seed range %q", text)
		}
		out := make([]int64, 0, b-a+1)
		for s := a; s <= b; s++ {
			out = append(out, s)
		}
		return out, nil
	}
	var out []int64
	for _, f := range splitList(text) {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func splitList(text string) []string {
	var out []string
	for _, f := range strings.Split(text, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// Validate checks the spec's axes and builds the base configuration;
// it is called by ParseSpec and must be called before Cells/EachCell on
// a hand-built Spec.
func (s *Spec) Validate() error {
	if len(s.Apps) == 0 || len(s.Kinds) == 0 || len(s.Modes) == 0 || len(s.Seeds) == 0 {
		return fmt.Errorf("sweep: spec needs at least one app, kind, mode, and seed")
	}
	if len(s.Faults) == 0 {
		s.Faults = []FaultVariant{{}}
	}
	known := make(map[string]bool)
	for _, app := range core.Apps() {
		known[app] = true
	}
	for _, app := range s.Apps {
		if !known[app] {
			return fmt.Errorf("sweep: unknown application %q (have %v)", app, core.Apps())
		}
	}
	base := core.DefaultConfig()
	base.Scale = s.Scale
	// Param axes are applied via a JSON round-trip so any Config field
	// can be swept by name; verify every field and value now, at parse
	// time, rather than cell by cell.
	fields, err := configFields(base)
	if err != nil {
		return err
	}
	swept := make(map[string]bool)
	for _, ax := range s.Params {
		if len(ax.Values) == 0 {
			return fmt.Errorf("sweep: param %q has no values", ax.Field)
		}
		names, _ := ax.point(ax.Values[0])
		for _, name := range names {
			if _, ok := fields[name]; !ok {
				return fmt.Errorf("sweep: param %q is not a config field", name)
			}
			if dir := map[string]string{"Seed": "seeds", "Scale": "scale"}[name]; dir != "" {
				// An axis would silently override the directive.
				return fmt.Errorf("sweep: param %s: use the %s directive", name, dir)
			}
			if swept[name] {
				return fmt.Errorf("sweep: param %s is swept twice", name)
			}
			swept[name] = true
		}
		for _, v := range ax.Values {
			_, vals := ax.point(v)
			if len(vals) != len(names) {
				return fmt.Errorf("sweep: param %s value %q has %d parts, want %d", ax.Field, v, len(vals), len(names))
			}
			for _, pv := range vals {
				if !json.Valid([]byte(pv)) {
					return fmt.Errorf("sweep: param %s value %q is not valid JSON", ax.Field, v)
				}
			}
		}
	}
	s.base = base
	s.ok = true
	return nil
}

// configFields returns the JSON object form of a config.
func configFields(cfg param.Config) (map[string]json.RawMessage, error) {
	blob, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, err
	}
	return m, nil
}

// Canon renders the spec canonically: fixed directive order, expanded
// seed lists. Two specs with equal Canon enumerate equal grids, and
// ParseSpec(s.Canon()) round-trips.
func (s *Spec) Canon() string {
	var b strings.Builder
	if s.Name != "" {
		fmt.Fprintf(&b, "name %s\n", s.Name)
	}
	fmt.Fprintf(&b, "apps %s\n", strings.Join(s.Apps, ","))
	kinds := make([]string, len(s.Kinds))
	for i, k := range s.Kinds {
		kinds[i] = k.String()
	}
	fmt.Fprintf(&b, "kinds %s\n", strings.Join(kinds, ","))
	modes := make([]string, len(s.Modes))
	for i, m := range s.Modes {
		modes[i] = m.String()
	}
	fmt.Fprintf(&b, "modes %s\n", strings.Join(modes, ","))
	seeds := make([]string, len(s.Seeds))
	for i, sd := range s.Seeds {
		seeds[i] = strconv.FormatInt(sd, 10)
	}
	fmt.Fprintf(&b, "seeds %s\n", strings.Join(seeds, ","))
	fmt.Fprintf(&b, "scale %s\n", strconv.FormatFloat(s.Scale, 'g', -1, 64))
	if s.MinFree == MinFreeConfig {
		fmt.Fprintf(&b, "minfree config\n")
	} else {
		fmt.Fprintf(&b, "minfree paper\n")
	}
	if s.SeriesInterval > 0 {
		fmt.Fprintf(&b, "series %d\n", s.SeriesInterval)
	}
	for _, ax := range s.Params {
		fmt.Fprintf(&b, "param %s %s\n", ax.Field, strings.Join(ax.Values, ","))
	}
	for _, v := range s.Faults {
		fmt.Fprintf(&b, "fault %s\n", v.render())
	}
	return b.String()
}

// Digest identifies the grid: sha256 over the canonical rendering.
// STATE files and manifests carry it, so a resume against a different
// spec (or shard layout) is rejected instead of silently mismerged.
func (s *Spec) Digest() string {
	h := sha256.Sum256([]byte(s.Canon()))
	return hex.EncodeToString(h[:])
}

// BaseConfig returns the spec's base configuration (scale applied, no
// param axis values).
func (s *Spec) BaseConfig() param.Config {
	s.mustValidate()
	return s.base
}

// NumCells returns the grid's total cell count.
func (s *Spec) NumCells() int {
	s.mustValidate()
	n := len(s.Apps) * len(s.Kinds) * len(s.Modes) * len(s.Seeds) * len(s.Faults)
	for _, ax := range s.Params {
		n *= len(ax.Values)
	}
	return n
}

func (s *Spec) mustValidate() {
	if !s.ok {
		if err := s.Validate(); err != nil {
			panic(err)
		}
	}
}

// EachCell enumerates the grid lazily in canonical order — app
// outermost, then kind, mode, seed, param axes (declaration order, last
// fastest), fault variant innermost — calling fn with each cell's index
// and value. fn returning a non-nil error stops the walk. Memory stays
// O(1) in the grid size: cells are built on the fly, never collected.
func (s *Spec) EachCell(fn func(idx int, c core.Cell) error) error {
	s.mustValidate()
	counts := make([]int, len(s.Params))
	combo := make([]int, len(s.Params))
	for i, ax := range s.Params {
		counts[i] = len(ax.Values)
	}
	idx := 0
	for _, app := range s.Apps {
		for _, kind := range s.Kinds {
			for _, mode := range s.Modes {
				for _, seed := range s.Seeds {
					for i := range combo {
						combo[i] = 0
					}
					for {
						cfg, explicitMinFree, err := s.cellConfig(seed, combo)
						if err != nil {
							return err
						}
						if s.MinFree == MinFreePaper && !explicitMinFree {
							cfg = core.ApplyPaperMinFree(cfg, kind, mode)
						}
						for _, fv := range s.Faults {
							c := core.Cell{App: app, Kind: kind, Mode: mode, Cfg: cfg,
								FaultPlan: fv.Plan, FaultSeed: fv.Seed, Recovery: fv.Recovery}
							if fv.none() {
								c.FaultSeed = 0
							}
							if err := fn(idx, c); err != nil {
								return err
							}
							idx++
						}
						if !odometer(combo, counts) {
							break
						}
					}
				}
			}
		}
	}
	return nil
}

// odometer advances combo (last digit fastest); false when it wraps.
func odometer(combo, counts []int) bool {
	for i := len(combo) - 1; i >= 0; i-- {
		combo[i]++
		if combo[i] < counts[i] {
			return true
		}
		combo[i] = 0
	}
	return false
}

// cellConfig applies the param-axis combination to the base config via
// a JSON round-trip. explicitMinFree reports whether a MinFreeFrames
// axis (alone or in a tuple) set the floor, suppressing the paper
// default.
func (s *Spec) cellConfig(seed int64, combo []int) (cfg param.Config, explicitMinFree bool, err error) {
	cfg = s.base
	cfg.Seed = seed
	if len(combo) == 0 {
		return cfg, false, nil
	}
	fields, err := configFields(cfg)
	if err != nil {
		return cfg, false, err
	}
	for i, ax := range s.Params {
		names, vals := ax.point(ax.Values[combo[i]])
		for j, name := range names {
			fields[name] = json.RawMessage(vals[j])
			if name == "MinFreeFrames" {
				explicitMinFree = true
			}
		}
	}
	blob, err := json.Marshal(fields)
	if err != nil {
		return cfg, false, err
	}
	if err := json.Unmarshal(blob, &cfg); err != nil {
		return cfg, false, fmt.Errorf("sweep: applying param axes: %w", err)
	}
	return cfg, explicitMinFree, nil
}

// ShardOf returns the shard owning cell idx under n shards: cells are
// dealt round-robin (idx mod n), which balances every axis across
// shards regardless of grid shape.
func ShardOf(idx, n int) int {
	if n <= 1 {
		return 0
	}
	return idx % n
}

// EachShardCell walks only the cells of shard i of n (see ShardOf).
func (s *Spec) EachShardCell(i, n int, fn func(idx int, c core.Cell) error) error {
	return s.EachCell(func(idx int, c core.Cell) error {
		if ShardOf(idx, n) != i {
			return nil
		}
		return fn(idx, c)
	})
}

// ShardSize returns how many cells shard i of n owns.
func (s *Spec) ShardSize(i, n int) int {
	total := s.NumCells()
	if n <= 1 {
		return total
	}
	size := total / n
	if i < total%n {
		size++
	}
	return size
}

// pivotColumns labels the columns of the merge summary's pivot: every
// coordinate of a cell but its app, in canonical grid order (kind, mode,
// seed, param axes, fault variant). Only the axes that vary name a
// column; axes lists their names.
func (s *Spec) pivotColumns() (axes, labels []string) {
	type axis struct {
		name string
		vals []string
	}
	all := []axis{{name: "kind"}, {name: "mode"}, {name: "seed"}}
	for _, k := range s.Kinds {
		all[0].vals = append(all[0].vals, k.String())
	}
	for _, m := range s.Modes {
		all[1].vals = append(all[1].vals, m.String())
	}
	for _, sd := range s.Seeds {
		all[2].vals = append(all[2].vals, strconv.FormatInt(sd, 10))
	}
	for _, ax := range s.Params {
		all = append(all, axis{ax.Field, ax.Values})
	}
	faults := axis{name: "fault"}
	for _, v := range s.Faults {
		faults.vals = append(faults.vals, v.render())
	}
	all = append(all, faults)

	labels = []string{""}
	for _, ax := range all {
		if len(ax.vals) < 2 {
			continue
		}
		axes = append(axes, ax.name)
		next := make([]string, 0, len(labels)*len(ax.vals))
		for _, l := range labels {
			for _, v := range ax.vals {
				next = append(next, strings.TrimSpace(l+" "+v))
			}
		}
		labels = next
	}
	if len(axes) == 0 {
		labels = []string{"all"}
	}
	return axes, labels
}
