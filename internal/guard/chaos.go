package guard

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// ChaosPlan is a declarative schedule of host filesystem faults, the
// guard-layer analogue of a fault.Plan: the same plan + seed replays
// the exact same fault sequence against the same operation order.
//
// Faults are keyed to per-kind operation counters (the Nth fsync, a
// window of write calls), not wall clock, so chaos runs are
// reproducible on any host speed.
type ChaosPlan struct {
	SyncFailNth []uint64   // 1-based fsync indices that fail (ENOSPC-marked transient)
	SyncRate    float64    // additionally, each fsync fails with this probability
	ShortRate   float64    // each write/WriteAt lands a torn prefix with this probability
	ENOSPC      []OpWindow // write-op count windows that fail with ENOSPC
	ReadRate    float64    // each read/ReadAt/ReadFile fails with EINTR at this rate
	RenameNth   []uint64   // 1-based rename indices that fail (EINTR)
}

// OpWindow is a half-open [From, Until) window over an operation
// counter: operations with 1-based index i, From <= i < Until, fail.
type OpWindow struct {
	From, Until uint64
}

// ParseChaos reads a chaos plan from its textual spec: one directive
// per line, blank lines and #-comments ignored. Directives:
//
//	sync fail nth=N            (the Nth fsync fails; repeatable)
//	sync fail rate=R           (each fsync fails with probability R)
//	write short rate=R         (torn write: a prefix lands, then error)
//	write enospc from=A until=B  (write ops A..B-1 fail with ENOSPC)
//	read eintr rate=R          (reads fail with EINTR, consuming nothing)
//	rename fail nth=N          (the Nth rename fails; repeatable)
//
// Counts are 1-based per-kind operation indices; windows are
// half-open like fault.Plan's.
func ParseChaos(text string) (*ChaosPlan, error) {
	p := &ChaosPlan{}
	for li, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("chaos: line %d: incomplete directive %q", li+1, line)
		}
		kv, err := chaosKV(fields[2:], li+1)
		if err != nil {
			return nil, err
		}
		directive := fields[0] + " " + fields[1]
		switch directive {
		case "sync fail":
			nth, hasNth := kv["nth"]
			rate, hasRate := kv["rate"]
			switch {
			case hasNth && hasRate:
				return nil, chaosErr(li, fmt.Errorf("sync fail takes nth= or rate=, not both"))
			case hasNth:
				n, err := chaosCount(nth)
				if err != nil {
					return nil, chaosErr(li, fmt.Errorf("nth: %v", err))
				}
				p.SyncFailNth = append(p.SyncFailNth, n)
			case hasRate:
				if p.SyncRate, err = chaosRate(rate); err != nil {
					return nil, chaosErr(li, err)
				}
			default:
				return nil, chaosErr(li, fmt.Errorf("sync fail needs nth= or rate="))
			}
		case "write short":
			v, ok := kv["rate"]
			if !ok {
				return nil, chaosErr(li, fmt.Errorf("missing rate="))
			}
			if p.ShortRate, err = chaosRate(v); err != nil {
				return nil, chaosErr(li, err)
			}
		case "write enospc":
			var w OpWindow
			if w.From, err = chaosCountKey(kv, "from"); err != nil {
				return nil, chaosErr(li, err)
			}
			if w.Until, err = chaosCountKey(kv, "until"); err != nil {
				return nil, chaosErr(li, err)
			}
			if w.Until <= w.From {
				return nil, chaosErr(li, fmt.Errorf("window until=%d must be after from=%d", w.Until, w.From))
			}
			p.ENOSPC = append(p.ENOSPC, w)
		case "read eintr":
			v, ok := kv["rate"]
			if !ok {
				return nil, chaosErr(li, fmt.Errorf("missing rate="))
			}
			if p.ReadRate, err = chaosRate(v); err != nil {
				return nil, chaosErr(li, err)
			}
		case "rename fail":
			v, ok := kv["nth"]
			if !ok {
				return nil, chaosErr(li, fmt.Errorf("missing nth="))
			}
			n, err := chaosCount(v)
			if err != nil {
				return nil, chaosErr(li, fmt.Errorf("nth: %v", err))
			}
			p.RenameNth = append(p.RenameNth, n)
		default:
			return nil, fmt.Errorf("chaos: line %d: unknown directive %q", li+1, directive)
		}
	}
	// Canonical order, mirroring fault.Parse: the injected sequence
	// must not depend on how the author sorted their lines.
	sort.Slice(p.SyncFailNth, func(i, j int) bool { return p.SyncFailNth[i] < p.SyncFailNth[j] })
	sort.Slice(p.RenameNth, func(i, j int) bool { return p.RenameNth[i] < p.RenameNth[j] })
	sort.SliceStable(p.ENOSPC, func(i, j int) bool { return p.ENOSPC[i].From < p.ENOSPC[j].From })
	return p, nil
}

// String renders the plan in the canonical spec syntax;
// ParseChaos(p.String()) reproduces p exactly.
func (p *ChaosPlan) String() string {
	var sb strings.Builder
	for _, n := range p.SyncFailNth {
		fmt.Fprintf(&sb, "sync fail nth=%d\n", n)
	}
	if p.SyncRate > 0 {
		fmt.Fprintf(&sb, "sync fail rate=%g\n", p.SyncRate)
	}
	if p.ShortRate > 0 {
		fmt.Fprintf(&sb, "write short rate=%g\n", p.ShortRate)
	}
	for _, w := range p.ENOSPC {
		fmt.Fprintf(&sb, "write enospc from=%d until=%d\n", w.From, w.Until)
	}
	if p.ReadRate > 0 {
		fmt.Fprintf(&sb, "read eintr rate=%g\n", p.ReadRate)
	}
	for _, n := range p.RenameNth {
		fmt.Fprintf(&sb, "rename fail nth=%d\n", n)
	}
	return sb.String()
}

func chaosErr(li int, err error) error {
	return fmt.Errorf("chaos: line %d: %v", li+1, err)
}

func chaosKV(fields []string, line int) (map[string]string, error) {
	kv := make(map[string]string, len(fields))
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("chaos: line %d: malformed argument %q (want key=value)", line, f)
		}
		if _, dup := kv[k]; dup {
			return nil, fmt.Errorf("chaos: line %d: duplicate key %q", line, k)
		}
		kv[k] = v
	}
	return kv, nil
}

func chaosRate(v string) (float64, error) {
	r, err := strconv.ParseFloat(v, 64)
	if err != nil || r < 0 || r > 1 {
		return 0, fmt.Errorf("rate=%s must be a probability in [0,1]", v)
	}
	return r, nil
}

func chaosCount(v string) (uint64, error) {
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("%q is not a positive integer", v)
	}
	return n, nil
}

func chaosCountKey(kv map[string]string, key string) (uint64, error) {
	v, ok := kv[key]
	if !ok {
		return 0, fmt.Errorf("missing %s=", key)
	}
	n, err := chaosCount(v)
	if err != nil {
		return 0, fmt.Errorf("%s: %v", key, err)
	}
	return n, nil
}

// ChaosStats counts operations seen and faults injected, reported
// after a chaos run so coverage of the plan is visible in CI logs.
type ChaosStats struct {
	Syncs, Writes, Reads, Renames                           uint64
	SyncFails, ShortWrites, ENOSPCs, ReadFails, RenameFails uint64
}

// ChaosFS wraps an inner FS and injects the plan's faults. All
// injected errors classify as Transient, so code threaded with a
// Retrier must survive them — that is the property the chaos gate
// proves. Counters and the PRNG are internally locked; the fault
// sequence is deterministic for a fixed (plan, seed, operation
// order).
//
// Scope guard: only paths under Root (when set) are eligible for
// injection; everything else passes straight through. The sweep CLIs
// set Root to the sweep directory so chaos never corrupts unrelated
// host files.
type ChaosFS struct {
	inner FS
	plan  *ChaosPlan
	root  string

	mu    sync.Mutex
	rng   uint64
	stats ChaosStats
	syncN map[uint64]bool // remaining fail-nth fsync indices
	renN  map[uint64]bool // remaining fail-nth rename indices
}

// NewChaosFS builds a fault-injecting filesystem over inner (nil =
// the real OS) executing plan with the given seed. root, when
// non-empty, limits injection to paths under that directory.
func NewChaosFS(inner FS, plan *ChaosPlan, seed uint64, root string) *ChaosFS {
	c := &ChaosFS{
		inner: Or(inner),
		plan:  plan,
		root:  filepath.Clean(root),
		rng:   splitmix64(seed ^ 0xc4a05f0cb2f95f6d),
		syncN: make(map[uint64]bool, len(plan.SyncFailNth)),
		renN:  make(map[uint64]bool, len(plan.RenameNth)),
	}
	if root == "" {
		c.root = ""
	}
	for _, n := range plan.SyncFailNth {
		c.syncN[n] = true
	}
	for _, n := range plan.RenameNth {
		c.renN[n] = true
	}
	return c
}

// Stats returns a snapshot of operation and injection counts.
func (c *ChaosFS) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// draw advances the seeded PRNG and returns a uniform float in [0,1).
// Caller holds mu.
func (c *ChaosFS) draw() float64 {
	c.rng = splitmix64(c.rng)
	return float64(c.rng>>11) / float64(1<<53)
}

func (c *ChaosFS) inScope(name string) bool {
	if c.root == "" {
		return true
	}
	rel, err := filepath.Rel(c.root, filepath.Clean(name))
	return err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator))
}

// syncFault decides the fate of the next fsync. Injected failures are
// ENOSPC-marked transient: the callers' write-then-verify designs
// retry the whole verified operation rather than trusting a bare
// re-fsync (see Classify for the EIO rationale).
func (c *ChaosFS) syncFault() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Syncs++
	if c.syncN[c.stats.Syncs] {
		c.stats.SyncFails++
		return MarkTransient(fmt.Errorf("chaos: fsync %d failed: %w", c.stats.Syncs, syscall.ENOSPC))
	}
	if c.plan.SyncRate > 0 && c.draw() < c.plan.SyncRate {
		c.stats.SyncFails++
		return MarkTransient(fmt.Errorf("chaos: fsync %d failed: %w", c.stats.Syncs, syscall.ENOSPC))
	}
	return nil
}

// writeFault decides the fate of the next write of n bytes: (-1, nil)
// passes it through, (k, err) with k >= 0 means "write only the first
// k bytes, then return err".
func (c *ChaosFS) writeFault(n int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Writes++
	for _, w := range c.plan.ENOSPC {
		if c.stats.Writes >= w.From && c.stats.Writes < w.Until {
			c.stats.ENOSPCs++
			return 0, fmt.Errorf("chaos: write %d in enospc window: %w", c.stats.Writes, syscall.ENOSPC)
		}
	}
	if c.plan.ShortRate > 0 && n > 1 && c.draw() < c.plan.ShortRate {
		c.stats.ShortWrites++
		// Torn write: a strict prefix lands on disk, then the kernel
		// reports failure — the worst honest outcome of a crashed or
		// interrupted write() on a POSIX filesystem.
		k := 1 + int(c.rngNextLocked()%uint64(n-1))
		return k, MarkTransient(fmt.Errorf("chaos: torn write %d: %d/%d bytes: %w",
			c.stats.Writes, k, n, io.ErrShortWrite))
	}
	return -1, nil
}

func (c *ChaosFS) rngNextLocked() uint64 {
	c.rng = splitmix64(c.rng)
	return c.rng
}

// readFault decides the fate of the next read.
func (c *ChaosFS) readFault() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Reads++
	if c.plan.ReadRate > 0 && c.draw() < c.plan.ReadRate {
		c.stats.ReadFails++
		// EINTR semantics: the call consumed nothing; retry from the
		// same position.
		return fmt.Errorf("chaos: read %d interrupted: %w", c.stats.Reads, syscall.EINTR)
	}
	return nil
}

func (c *ChaosFS) renameFault() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Renames++
	if c.renN[c.stats.Renames] {
		c.stats.RenameFails++
		return fmt.Errorf("chaos: rename %d interrupted: %w", c.stats.Renames, syscall.EINTR)
	}
	return nil
}

func (c *ChaosFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := c.inner.OpenFile(name, flag, perm)
	return c.wrap(f, name), err
}

func (c *ChaosFS) Open(name string) (File, error) {
	f, err := c.inner.Open(name)
	return c.wrap(f, name), err
}

func (c *ChaosFS) Create(name string) (File, error) {
	f, err := c.inner.Create(name)
	return c.wrap(f, name), err
}

func (c *ChaosFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := c.inner.CreateTemp(dir, pattern)
	if f != nil {
		return c.wrap(f, f.Name()), err
	}
	return nil, err
}

func (c *ChaosFS) ReadFile(name string) ([]byte, error) {
	if c.inScope(name) {
		if err := c.readFault(); err != nil {
			return nil, err
		}
	}
	return c.inner.ReadFile(name)
}

func (c *ChaosFS) Rename(oldpath, newpath string) error {
	if c.inScope(newpath) {
		if err := c.renameFault(); err != nil {
			return err
		}
	}
	return c.inner.Rename(oldpath, newpath)
}

func (c *ChaosFS) Remove(name string) error { return c.inner.Remove(name) }

func (c *ChaosFS) MkdirAll(path string, perm os.FileMode) error {
	return c.inner.MkdirAll(path, perm)
}

// wrap interposes the fault hooks on a file's I/O when it is in
// scope. A nil file stays nil (error paths).
func (c *ChaosFS) wrap(f File, name string) File {
	if f == nil {
		return nil
	}
	if !c.inScope(name) {
		return f
	}
	return &chaosFile{File: f, fs: c}
}

type chaosFile struct {
	File
	fs *ChaosFS
}

func (f *chaosFile) Sync() error {
	if err := f.fs.syncFault(); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *chaosFile) Write(p []byte) (int, error) {
	k, err := f.fs.writeFault(len(p))
	if err != nil {
		if k > 0 {
			n, werr := f.File.Write(p[:k])
			if werr != nil {
				return n, werr
			}
			return n, err
		}
		return 0, err
	}
	return f.File.Write(p)
}

func (f *chaosFile) WriteAt(p []byte, off int64) (int, error) {
	k, err := f.fs.writeFault(len(p))
	if err != nil {
		if k > 0 {
			n, werr := f.File.WriteAt(p[:k], off)
			if werr != nil {
				return n, werr
			}
			return n, err
		}
		return 0, err
	}
	return f.File.WriteAt(p, off)
}

func (f *chaosFile) Read(p []byte) (int, error) {
	if err := f.fs.readFault(); err != nil {
		return 0, err
	}
	return f.File.Read(p)
}

func (f *chaosFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.fs.readFault(); err != nil {
		return 0, err
	}
	return f.File.ReadAt(p, off)
}
