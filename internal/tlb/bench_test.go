package tlb

import (
	"math/rand"
	"testing"
)

// BenchmarkTLBLookup measures hit/miss churn on a 64-entry TLB: uniform
// random pages over 96, so about two lookups in three hit and every miss
// evicts. It reports the hit share, a deterministic work count.
func BenchmarkTLBLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	seq := make([]int64, 4096)
	for i := range seq {
		seq[i] = rng.Int63n(96)
	}
	tb := New(64)
	for _, p := range seq {
		tb.Lookup(p)
	}
	tb.Hits, tb.Misses = 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup(seq[i&(len(seq)-1)])
	}
	b.ReportMetric(float64(tb.Hits)/float64(b.N), "hits/op")
}
