package main

import (
	"runtime"
	"sync"
	"time"
)

// The shared host's speed swings by 20–30% over seconds to minutes (see
// README.md, Noise), far more than a run can average away. So every
// timed rep is bracketed by a fixed reference kernel, and rep_rel divides
// the rep's wall time by the kernel's: both slow down together, and the
// ratio keeps what the program did. The kernel lives here, apart from the
// code under test, so no change outside the benchmark moves it.
//
// The kernel does what the simulator spends its host time on: goroutine
// handoffs over unbuffered channels (the engine's process switches) and
// a binary heap of pseudo-random timestamps (its event queue). It
// allocates nothing, and runs after a forced GC, so no collector work
// lands in it. A table walk larger than the caches tracked the drift
// worse and raised peak RSS, so the kernel has none.

// refLane is one lane of the reference kernel: a ping-pong partner and a
// heap buffer, both made once.
type refLane struct {
	ping, pong chan int
	heap       []int64
	sink       int64
}

// reference is the kernel sized for one workload. Lane 0 runs alone;
// a workload that runs cells on a pool of n workers then has n lanes run
// at once, because its reps spend time both ways: all workers busy, and
// one goroutine alone (the pool's tail, rendering, the HTTP client).
type reference struct {
	lanes []*refLane
}

func newReference(lanes int) *reference {
	r := &reference{}
	for i := 0; i < lanes; i++ {
		l := &refLane{ping: make(chan int), pong: make(chan int), heap: make([]int64, 0, refHeap+1)}
		go func() {
			for v := range l.ping {
				l.pong <- v + 1
			}
		}()
		r.lanes = append(r.lanes, l)
	}
	return r
}

// close stops the lanes' partner goroutines.
func (r *reference) close() {
	for _, l := range r.lanes {
		close(l.ping)
	}
}

// time runs the kernel once and returns its wall time.
func (r *reference) time() time.Duration {
	runtime.GC()
	start := time.Now()
	r.lanes[0].run()
	if len(r.lanes) > 1 {
		var wg sync.WaitGroup
		for _, l := range r.lanes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				l.run()
			}()
		}
		wg.Wait()
	}
	return time.Since(start)
}

// Kernel size: about 20 ms per lane on a 2-vCPU Xeon VM.
const (
	refHandoffs = 20000
	refPushes   = 200000
	refHeap     = 2048
)

func (l *refLane) run() {
	v := 0
	for i := 0; i < refHandoffs; i++ {
		l.ping <- v
		v = <-l.pong
	}
	h := l.heap[:0]
	x := uint64(88172645463325252)
	for i := 0; i < refPushes; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h = heapPush(h, int64(x>>1))
		if len(h) >= refHeap {
			h = heapPop(heapPop(h))
		}
	}
	l.heap = h
	l.sink += int64(v) + h[0]
}

func heapPush(h []int64, t int64) []int64 {
	h = append(h, t)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	return h
}

func heapPop(h []int64) []int64 {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r] < h[l] {
			l = r
		}
		if h[i] <= h[l] {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	return h
}
