package disk

import (
	"math/rand"
	"testing"
)

// TestBlockSetMatchesMap drives the DCD log's index through random
// adds and removes over a small key range (dense probe runs, many
// wrap-arounds and backward shifts) and checks it against a map.
func TestBlockSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s blockSet
	ref := map[int64]bool{}
	for i := 0; i < 200_000; i++ {
		b := rng.Int63n(300) - 10 // negative blocks too
		if rng.Intn(3) == 0 {
			s.remove(b)
			delete(ref, b)
		} else if got, want := s.add(b), !ref[b]; got != want {
			t.Fatalf("op %d: add(%d) = %v, want %v", i, b, got, want)
		} else {
			ref[b] = true
		}
		if s.n != len(ref) {
			t.Fatalf("op %d: size %d, want %d", i, s.n, len(ref))
		}
		if q := rng.Int63n(300) - 10; s.has(q) != ref[q] {
			t.Fatalf("op %d: has(%d) = %v, want %v", i, q, s.has(q), ref[q])
		}
	}
}

// TestBlockRingFIFO checks the destage queue keeps FIFO order across
// growth and head wrap-around.
func TestBlockRingFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var r blockRing
	var ref []int64
	next := int64(0)
	for i := 0; i < 50_000; i++ {
		if k := rng.Intn(9); k <= r.n && rng.Intn(2) == 0 {
			r.pop(k)
			ref = ref[k:]
		} else {
			r.push(next)
			ref = append(ref, next)
			next++
		}
		if r.n != len(ref) {
			t.Fatalf("op %d: len %d, want %d", i, r.n, len(ref))
		}
		for j := range ref {
			if r.at(j) != ref[j] {
				t.Fatalf("op %d: at(%d) = %d, want %d", i, j, r.at(j), ref[j])
			}
		}
	}
}
