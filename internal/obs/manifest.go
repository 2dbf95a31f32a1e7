package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
)

// Manifest is the JSON record of one tool invocation: enough to rerun it
// (params + seed), compare it (determinism digest of the primary output
// bytes — what scripts/golden.sh pins), and explain it (metric
// snapshot). Two runs with equal Params/Seed must produce equal Digest
// and equal Metrics; WallNS and CreatedAt are the only fields allowed to
// differ.
type Manifest struct {
	Tool     string `json:"tool"`          // "nwsim" | "nwbench"
	App      string `json:"app,omitempty"` // nwsim single-run workload
	Machine  string `json:"machine,omitempty"`
	Prefetch string `json:"prefetch,omitempty"`
	Seed     int64  `json:"seed"`
	Runs     int    `json:"runs,omitempty"` // distinct simulations executed (nwbench)

	// Sweep identity (nwsweep): the grid spec digest and the shard this
	// manifest covers ("i/n" for shard outputs, the constant "merged" for
	// the merge — shard-count-invariant so the merged manifest is byte-
	// identical however the sweep was partitioned).
	Spec  string `json:"spec,omitempty"`
	Shard string `json:"shard,omitempty"`

	// Params is the full simulation parameter set (param.Config JSON).
	Params json.RawMessage `json:"params"`

	WallNS     int64    `json:"wall_ns"`
	SimPcycles int64    `json:"sim_pcycles,omitempty"`
	Metrics    Snapshot `json:"metrics"`

	// Digest is "sha256:<hex>" over the exact bytes of the tool's primary
	// stdout output, as computed by a DigestWriter tee.
	Digest string `json:"digest"`

	TraceSpans   int    `json:"trace_spans,omitempty"`
	TraceDropped uint64 `json:"trace_dropped,omitempty"`
	CreatedAt    string `json:"created_at,omitempty"` // RFC3339 wall clock
}

// Write emits the manifest as indented JSON.
func (m *Manifest) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// ReadManifest decodes a manifest from r.
func ReadManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("obs: decoding manifest: %w", err)
	}
	return &m, nil
}

// DigestWriter tees writes through to an underlying writer while
// accumulating a SHA-256 of the exact byte stream. It is how a tool's
// stdout becomes the manifest's determinism digest without buffering the
// output.
type DigestWriter struct {
	w io.Writer
	h hash.Hash
	n int64
}

// NewDigestWriter wraps w.
func NewDigestWriter(w io.Writer) *DigestWriter {
	return &DigestWriter{w: w, h: sha256.New()}
}

// Write implements io.Writer.
func (d *DigestWriter) Write(p []byte) (int, error) {
	n, err := d.w.Write(p)
	d.h.Write(p[:n])
	d.n += int64(n)
	return n, err
}

// Sum returns the digest of everything written so far, "sha256:<hex>".
func (d *DigestWriter) Sum() string {
	return "sha256:" + hex.EncodeToString(d.h.Sum(nil))
}

// Bytes returns how many bytes have passed through.
func (d *DigestWriter) Bytes() int64 { return d.n }
