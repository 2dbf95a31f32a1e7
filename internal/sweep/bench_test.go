package sweep

import (
	"io"
	"testing"

	"nwcache/internal/core"
)

// benchSpecText is four service-grid cells: standard-machine records
// carry the 116-metric snapshot of a service-grid cell.
const benchSpecText = `
name bench
apps gauss
kinds standard
modes naive
seeds 1..4
scale 0.05
`

// benchShard runs the bench grid into a fresh directory and returns its
// spec, directory and the key of its first cell.
func benchShard(b *testing.B) (*Spec, string, string) {
	b.Helper()
	s, err := ParseSpec(benchSpecText)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if _, err := (&Runner{Spec: s, Shard: 0, Shards: 1, Dir: dir}).Run(); err != nil {
		b.Fatal(err)
	}
	var key string
	s.EachCell(func(idx int, c core.Cell) error {
		if idx == 0 {
			key = c.Key()
		}
		return nil
	})
	return s, dir, key
}

// BenchmarkCacheGet reads and digest-verifies one cell's cache entry.
func BenchmarkCacheGet(b *testing.B) {
	_, dir, key := benchShard(b)
	cache, err := OpenCache(dir + "/cache")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cache.Get(key); !ok {
			b.Fatal("cache miss")
		}
	}
}

// BenchmarkMergeShard merges a completed four-cell shard into the
// merged artifacts.
func BenchmarkMergeShard(b *testing.B) {
	s, dir, _ := benchShard(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Merge(s, dir, 1, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
