package dense

import (
	"container/list"
	"testing"
	"testing/quick"
)

// refLRU is the reference model: container/list (front = MRU) plus a map.
type refLRU struct {
	cap   int
	order *list.List
	at    map[int64]*list.Element
}

func newRef(capacity int) *refLRU {
	return &refLRU{cap: capacity, order: list.New(), at: map[int64]*list.Element{}}
}

// Op is one step of a random LRU workout; quick generates slices of them.
type Op struct {
	Kind uint8 // mod 5: Find, Touch, Insert-with-evict, Remove, Presize
	Key  uint8 // mod keySpace
}

const keySpace = 40

// TestLRUMatchesReference drives random operation sequences through an
// LRU and the reference model, comparing after every step the presence
// of every key, Len, and the victim each insertion evicts.
func TestLRUMatchesReference(t *testing.T) {
	f := func(ops []Op, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		l := NewLRU(capacity)
		ref := newRef(capacity)
		for i, op := range ops {
			k := int64(op.Key % keySpace)
			s := l.Find(k)
			e, present := ref.at[k]
			if (s >= 0) != present {
				t.Logf("op %d: Find(%d) = %d, reference present=%v", i, k, s, present)
				return false
			}
			switch op.Kind % 5 {
			case 1: // Touch
				if present {
					l.Touch(s)
					ref.order.MoveToFront(e)
				}
			case 2: // Insert, evicting the LRU key first when full
				if present {
					break
				}
				if l.Full() != (ref.order.Len() == ref.cap) {
					t.Logf("op %d: Full() = %v, reference len %d of %d", i, l.Full(), ref.order.Len(), ref.cap)
					return false
				}
				if l.Full() {
					victim := l.Key(l.Tail())
					want := ref.order.Back().Value.(int64)
					if victim != want {
						t.Logf("op %d: evicted %d, reference evicts %d", i, victim, want)
						return false
					}
					l.Remove(l.Tail())
					delete(ref.at, want)
					ref.order.Remove(ref.order.Back())
				}
				if got := l.Key(l.Insert(k)); got != k {
					t.Logf("op %d: Insert(%d) slot holds %d", i, k, got)
					return false
				}
				ref.at[k] = ref.order.PushFront(k)
			case 3: // Remove
				if present {
					l.Remove(s)
					delete(ref.at, k)
					ref.order.Remove(e)
				}
			case 4: // Presize (may shrink nothing, may grow)
				l.Presize(k)
			}
			if l.Len() != ref.order.Len() {
				t.Logf("op %d: Len() = %d, reference %d", i, l.Len(), ref.order.Len())
				return false
			}
			for key := int64(0); key < keySpace; key++ {
				if _, ok := ref.at[key]; (l.Find(key) >= 0) != ok {
					t.Logf("op %d: key %d presence differs from reference", i, key)
					return false
				}
			}
			if ref.order.Len() > 0 && l.Key(l.Tail()) != ref.order.Back().Value.(int64) {
				t.Logf("op %d: tail %d, reference %d", i, l.Key(l.Tail()), ref.order.Back().Value)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLRUPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("capacity 0", func() { NewLRU(0) })
	mustPanic("capacity over MaxCapacity", func() { NewLRU(MaxCapacity + 1) })
	mustPanic("negative key", func() { l := NewLRU(2); l.Insert(-1) })
	mustPanic("present key", func() { l := NewLRU(2); l.Insert(3); l.Insert(3) })
	mustPanic("insert when full", func() { l := NewLRU(1); l.Insert(0); l.Insert(1) })
	l := NewLRU(MaxCapacity) // the largest capacity is valid
	if s := l.Insert(7); l.Find(7) != s {
		t.Fatalf("Find(7) = %d after Insert returned slot %d", l.Find(7), s)
	}
}

// TestLRUHotPathZeroAlloc pins zero allocations for steady-state churn
// (find, touch, evict, insert, remove) on a presized LRU.
func TestLRUHotPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inserts allocations")
	}
	l := NewLRU(64)
	l.Presize(256)
	key := int64(0)
	if avg := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 8; i++ {
			key = (key*37 + 11) % 256
			if s := l.Find(key); s >= 0 {
				l.Touch(s)
				continue
			}
			if l.Full() {
				l.Remove(l.Tail())
			}
			l.Insert(key)
		}
		if s := l.Find(key); s >= 0 {
			l.Remove(s)
		}
	}); avg != 0 {
		t.Fatalf("LRU churn allocates %.2f/op", avg)
	}
}
