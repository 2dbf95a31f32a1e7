package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"nwcache/internal/core"
	"nwcache/internal/exp"
	"nwcache/internal/exp/pool"
	"nwcache/internal/machine"
	"nwcache/internal/obs"
)

// The manifest counts the pool's fresh simulations, and the trace holds
// one process per fresh cell in label order.
func TestTableManifestAndTraceCoverFreshRuns(t *testing.T) {
	dir := t.TempDir()
	manPath, tracePath := filepath.Join(dir, "manifest.json"), filepath.Join(dir, "trace.json")
	var stdout bytes.Buffer
	args := []string{"-table", "7", "-j", "2", "-q", "-scale", "0.05",
		"-manifest-out", manPath, "-trace-out", tracePath}
	if err := run(args, &stdout); err != nil {
		t.Fatal(err)
	}

	// The same table on a suite of its own gives the reference.
	cfg := core.DefaultConfig()
	cfg.Scale = 0.05
	p := pool.New(2)
	suite := exp.NewSuiteOn(cfg, p)
	var labels []string
	suite.AddObserver(func(c core.Cell, _ *machine.Machine) { labels = append(labels, c.Label()) })
	if _, err := suite.Table7(); err != nil {
		t.Fatal(err)
	}
	fresh, _ := p.Stats()
	sort.Strings(labels)

	raw, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	man, err := obs.ReadManifest(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if man.Runs != fresh || fresh == 0 {
		t.Fatalf("manifest runs %d, pool ran %d fresh cells", man.Runs, fresh)
	}
	sum := sha256.Sum256(stdout.Bytes())
	if want := "sha256:" + hex.EncodeToString(sum[:]); man.Digest != want {
		t.Fatalf("digest %s, want %s", man.Digest, want)
	}

	raw, err = os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := obs.ReadChrome(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(traces))
	for i, tr := range traces {
		names[i] = tr.Name
	}
	if !reflect.DeepEqual(names, labels) {
		t.Fatalf("trace processes %v, want the fresh cells in label order %v", names, labels)
	}
}
