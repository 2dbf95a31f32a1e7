package coherence

import (
	"math/rand"
	"testing"
)

// BenchmarkCoherentCacheAccess measures the coherent cache's per-access
// work on a full 128-block cache: a State lookup, an Insert (evicting the
// LRU block) on a miss, and a DropPage (the swap-out invalidation) every
// eighth access. Blocks are uniform random over 64 pages (256 blocks),
// so about half the lookups hit. It reports the hit share.
func BenchmarkCoherentCacheAccess(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	seq := make([]int64, 4096)
	for i := range seq {
		seq[i] = rng.Int63n(64 * SubPerPage)
	}
	c := NewCache(128)
	access := func(i int) bool {
		blk := seq[i&(len(seq)-1)]
		page, sub := blk/SubPerPage, int(blk%SubPerPage)
		hit := c.State(page, sub) != Invalid
		if !hit {
			c.Insert(page, sub, Shared)
		}
		if i&7 == 0 {
			c.DropPage(seq[(i+1)&(len(seq)-1)] / SubPerPage)
		}
		return hit
	}
	for i := range seq {
		access(i)
	}
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if access(i) {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
}
