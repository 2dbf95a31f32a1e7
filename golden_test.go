package nwcache_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"runtime"
	"strings"
	"testing"

	"nwcache/internal/core"
	"nwcache/internal/exp"
	"nwcache/internal/exp/pool"
)

// TestGoldenDigest enforces the behaviour contract: the full fixed-seed
// paper evaluation (what `nwbench -all -q -seed 1` prints at scale 1.0)
// must hash to testdata/golden.digest, the value scripts/golden.sh checks.
// A change that moves any simulated number fails here until the digest is
// regenerated with `scripts/golden.sh --update`.
func TestGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale evaluation in -short mode")
	}
	want, err := os.ReadFile("testdata/golden.digest")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Scale, cfg.Seed = 1.0, 1
	jobs := runtime.GOMAXPROCS(0)
	suite := exp.NewSuiteOn(cfg, pool.New(jobs))
	if err := suite.Prewarm(jobs); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := suite.WriteAll(h); err != nil {
		t.Fatal(err)
	}
	if got := "sha256:" + hex.EncodeToString(h.Sum(nil)); got != strings.TrimSpace(string(want)) {
		t.Fatalf("paper evaluation digest %s, want %s", got, strings.TrimSpace(string(want)))
	}
}
