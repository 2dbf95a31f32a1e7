package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"

	"nwcache/internal/core"
	"nwcache/internal/guard"
	"nwcache/internal/obs"
)

// Record is the deterministic result of one cell: everything a merged
// sweep artifact carries per cell. Two runs of the same cell produce
// byte-identical marshaled Records — wall-clock quantities live in the
// cache Entry and the STATE file, never here.
type Record struct {
	Key       string           `json:"key"`
	Label     string           `json:"label"`
	App       string           `json:"app"`
	Kind      string           `json:"kind"`
	Mode      string           `json:"mode"`
	Seed      int64            `json:"seed"`
	FaultPlan string           `json:"fault_plan,omitempty"`
	FaultSeed int64            `json:"fault_seed,omitempty"`
	Recovery  string           `json:"recovery,omitempty"`
	Result    *core.Result     `json:"result"`
	Metrics   obs.Snapshot     `json:"metrics,omitempty"`
	Series    []obs.SeriesData `json:"series,omitempty"`
	// Digest is "sha256:<hex>" over the canonical JSON of Result — the
	// content address every consumer (cache load, STATE replay, merge)
	// re-verifies before trusting the record.
	Digest string `json:"digest"`
}

// Line is one NDJSON line of a shard or merged sweep output: a Record
// tagged with its grid index.
type Line struct {
	Idx int `json:"idx"`
	Record
}

// Entry is one cache file: a Record plus the wall-clock cost of the run
// that produced it.
type Entry struct {
	Record
	DurationNS int64 `json:"duration_ns,omitempty"`
}

// ResultDigest returns the content address of a result: "sha256:<hex>"
// over its canonical JSON.
func ResultDigest(res *core.Result) string {
	blob, err := json.Marshal(res)
	if err != nil {
		// Result is a plain struct of scalars and slices; cannot happen.
		panic(fmt.Sprintf("sweep: hashing result: %v", err))
	}
	h := sha256.Sum256(blob)
	return "sha256:" + hex.EncodeToString(h[:])
}

// NewRecord builds the deterministic record of one executed cell.
func NewRecord(c core.Cell, res *core.Result, metrics obs.Snapshot, series []obs.SeriesData) Record {
	return Record{
		Key:       c.Key(),
		Label:     c.Label(),
		App:       c.App,
		Kind:      c.Kind.String(),
		Mode:      c.Mode.String(),
		Seed:      c.Cfg.Seed,
		FaultPlan: c.FaultPlan,
		FaultSeed: c.FaultSeed,
		Recovery:  c.Recovery,
		Result:    res,
		Metrics:   metrics,
		Series:    series,
		Digest:    ResultDigest(res),
	}
}

// Verify recomputes the record's result digest and reports whether it
// matches the stored content address.
func (r *Record) Verify() bool {
	return r.Result != nil && ResultDigest(r.Result) == r.Digest
}

// Cache is a content-addressed result cache directory: one JSON entry
// per cell, addressed by core.Cell.Key and fanned out over 256
// two-hex-digit subdirectories. Writes go through a temp file + rename
// (atomic on POSIX) followed by a read-back verification, so concurrent
// shard processes can share one cache directory: a racing double-write
// of the same key is idempotent (same key → same bytes), and a torn
// write can never be observed under the final name. Cache is safe for
// concurrent use.
type Cache struct {
	dir   string
	fsys  guard.FS
	retry *guard.Retrier

	mu     sync.Mutex
	hits   int
	misses int
	bad    int // entries rejected by digest verification
	stores int
}

// OpenCache opens (creating if needed) the cache directory.
func OpenCache(dir string) (*Cache, error) {
	return OpenCacheOn(nil, nil, dir)
}

// OpenCacheOn is OpenCache through an explicit filesystem and retry
// budget: fsys is the host seam (nil: the real OS) and retry bounds
// transient-I/O retries on every Get read and the whole Put sequence
// (nil: one attempt). Put is retry-safe end to end because the rename
// is atomic and two writes of the same key produce the same bytes.
func OpenCacheOn(fsys guard.FS, retry *guard.Retrier, dir string) (*Cache, error) {
	fsys = guard.Or(fsys)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Cache{dir: dir, fsys: fsys, retry: retry}, nil
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// path fans the key out over its first byte.
func (c *Cache) path(key string) string {
	if len(key) < 2 {
		return filepath.Join(c.dir, "xx", key+".json")
	}
	return filepath.Join(c.dir, key[:2], key+".json")
}

// Get loads and digest-verifies the entry for key. A missing file is a
// plain miss; an unreadable, undecodable, or digest-mismatched entry is
// counted as corrupt and reported as a miss, so the cell re-runs
// instead of silently serving bad bytes.
func (c *Cache) Get(key string) (*Entry, bool) {
	var blob []byte
	err := c.retry.Do(func() error {
		var rerr error
		blob, rerr = c.fsys.ReadFile(c.path(key))
		return rerr
	})
	if err != nil {
		c.count(&c.misses)
		return nil, false
	}
	var e Entry
	if err := json.Unmarshal(blob, &e); err != nil || e.Key != key || !e.Verify() {
		c.count(&c.bad)
		return nil, false
	}
	c.count(&c.hits)
	return &e, true
}

// Put writes the entry with verify-then-rename semantics: temp file,
// sync, a read-back of the temp file that must equal the bytes written,
// then an atomic rename to the final path. Those bytes encode an entry
// whose digest was verified against its result, so only a
// digest-verified entry ever takes the final name. The whole sequence is
// retried under the cache's retry budget — each attempt uses a fresh
// temp file, removed when the attempt fails — so a failed attempt never
// leaves a torn entry under the final name.
func (c *Cache) Put(e *Entry) error {
	if e.Key == "" || e.Result == nil {
		return fmt.Errorf("sweep: cache entry needs a key and a result")
	}
	if e.Digest == "" {
		e.Digest = ResultDigest(e.Result)
	} else if !e.Verify() {
		return fmt.Errorf("sweep: cache entry %s: digest does not match its result", e.Key)
	}
	final := c.path(e.Key)
	blob, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if err := c.retry.Do(func() error { return c.putOnce(final, e.Key, blob) }); err != nil {
		return err
	}
	c.count(&c.stores)
	return nil
}

// putOnce is one complete Put attempt: temp write, sync, byte-exact
// read-back of the temp file, atomic rename.
func (c *Cache) putOnce(final, key string, blob []byte) error {
	if err := c.fsys.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return err
	}
	tmp, err := c.fsys.CreateTemp(filepath.Dir(final), ".tmp-"+key[:8]+"-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		c.fsys.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		c.fsys.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		c.fsys.Remove(tmpName)
		return err
	}
	// Read-back verification: the temp file must hold exactly the bytes
	// written (a torn or short write never does) before it takes the
	// final name.
	back, err := c.fsys.ReadFile(tmpName)
	if err != nil {
		c.fsys.Remove(tmpName)
		return fmt.Errorf("sweep: cache verify read %s: %w", tmpName, err)
	}
	if !bytes.Equal(back, blob) {
		c.fsys.Remove(tmpName)
		// A fresh attempt rewrites the entry from scratch; treat the
		// bad read-back as transient so the retry budget can repair it.
		return guard.MarkTransient(fmt.Errorf("sweep: cache verify failed for %s", final))
	}
	if err := c.fsys.Rename(tmpName, final); err != nil {
		c.fsys.Remove(tmpName)
		return err
	}
	return nil
}

// Stats reports cache traffic: verified hits, plain misses, entries
// rejected by digest verification, and successful stores.
func (c *Cache) Stats() (hits, misses, bad, stores int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.bad, c.stores
}

func (c *Cache) count(field *int) {
	c.mu.Lock()
	*field++
	c.mu.Unlock()
}
