// Package pool schedules simulation cells onto a bounded shared worker
// pool with a memoizing result cache.
//
// Every consumer of the evaluation matrix — the table/figure harness
// (internal/exp), cmd/nwbench, the sweep fabric (internal/sweep, behind
// cmd/nwsweep and cmd/nwserve), cmd/nwsim's multi-seed mode — funnels
// its runs through one Pool, so (1) total simulation concurrency
// is bounded once (the -j flag) no matter how many tables fan out, and
// (2) identical cells are simulated exactly once: the cache is keyed by
// core.Cell.Key, a canonical hash of the application, machine kind,
// prefetch mode, the full configuration, and any fault plan. The memo is
// in-process only; the sweep fabric keeps its own on-disk result cache
// and consults it before submitting a cell.
//
// Each simulation is single-threaded and shares no state with its
// siblings, and results are deterministic functions of the cell key, so
// parallel execution cannot perturb any reported number: callers submit
// cells in any order and collect futures in a deterministic order.
package pool

import (
	"container/list"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"nwcache/internal/core"
	"nwcache/internal/obs"
)

// DefaultMemoLimit bounds the in-process memo cache. A million-cell
// sweep must not accumulate a million retained Results: once the memo
// holds this many completed futures, the least-recently-used ones are
// evicted (an evicted cell re-simulates on its next submission).
// SetMemoLimit adjusts or disables the bound.
const DefaultMemoLimit = 1 << 16

// Future is the pending (or completed) result of one cell.
type Future struct {
	cell core.Cell
	key  string
	done chan struct{}
	res  *core.Result
	err  error
	elem *list.Element // LRU position once completed; nil while in flight
}

// Cell returns the cell this future computes.
func (f *Future) Cell() core.Cell { return f.cell }

// Wait blocks until the cell has been simulated and returns its result.
// Every caller of Wait on the same future receives the same *Result.
func (f *Future) Wait() (*core.Result, error) {
	<-f.done
	return f.res, f.err
}

// WaitTimeout blocks up to d for the cell to finish. ok reports
// whether it did; on false the result and error are meaningless and
// the cell is still running. This is the supervision primitive: a
// watchdog polls WaitTimeout between probe checks instead of
// committing to an unbounded Wait on a possibly-wedged cell.
func (f *Future) WaitTimeout(d time.Duration) (res *core.Result, err error, ok bool) {
	select {
	case <-f.done:
		return f.res, f.err, true
	default:
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-f.done:
		return f.res, f.err, true
	case <-t.C:
		return nil, nil, false
	}
}

// PanicError is the structured error a panicking cell is converted
// into: the pool contains the crash to the one future (siblings
// finish) and the sweep fabric persists it as a poison record instead
// of re-crashing the shard on resume.
type PanicError struct {
	Cell  core.Cell
	Key   string
	Value any    // the recovered panic value
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: cell %s (key %.12s…) panicked: %v\n%s",
		e.Cell.Label(), e.Key, e.Value, e.Stack)
}

// Pool is a bounded worker pool with a cell-key memo cache. The zero Pool
// is not usable; construct with New.
type Pool struct {
	sem      chan struct{}
	mu       sync.Mutex
	memo     map[string]*Future
	lru      *list.List // completed futures, most recent at the front
	limit    int        // max completed futures retained; <= 0: unbounded
	runs     int
	hits     int
	evicts   int
	inflight int // fresh submissions not yet completed (queued + running)
}

// New returns a pool running at most workers simulations concurrently.
// workers < 1 selects GOMAXPROCS. The memo cache starts bounded at
// DefaultMemoLimit.
func New(workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		sem:   make(chan struct{}, workers),
		memo:  make(map[string]*Future),
		lru:   list.New(),
		limit: DefaultMemoLimit,
	}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

// SetMemoLimit bounds the number of completed futures the memo cache
// retains (n <= 0 removes the bound). In-flight simulations are never
// evicted, so the instantaneous size can exceed the bound by the number
// of cells currently executing. Call before heavy submission; shrinking
// evicts immediately.
func (p *Pool) SetMemoLimit(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.limit = n
	p.evictOverLimit()
}

// evictOverLimit drops least-recently-used completed futures until the
// bound holds. Caller holds p.mu.
func (p *Pool) evictOverLimit() {
	for p.limit > 0 && p.lru.Len() > p.limit {
		back := p.lru.Back()
		ev := back.Value.(*Future)
		p.lru.Remove(back)
		ev.elem = nil
		delete(p.memo, ev.key)
		p.evicts++
	}
}

// Submit schedules the cell for simulation and returns its future
// immediately. fresh reports whether this call started a new execution
// slot (false: the cell was already memoized or in flight). Submit never
// blocks on simulation work.
func (p *Pool) Submit(c core.Cell) (f *Future, fresh bool) {
	key := c.Key()
	p.mu.Lock()
	if f = p.memo[key]; f != nil {
		p.hits++
		if f.elem != nil {
			p.lru.MoveToFront(f.elem)
		}
		p.mu.Unlock()
		return f, false
	}
	f = &Future{cell: c, key: key, done: make(chan struct{})}
	p.memo[key] = f
	p.inflight++
	p.mu.Unlock()
	go func() {
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
		defer func() {
			// Completed: enter the LRU (evicting over the bound), then
			// publish, so a returned Wait sees the bounded memo. In-flight
			// futures are pinned — they only become evictable here.
			p.mu.Lock()
			p.inflight--
			if p.memo[key] == f {
				f.elem = p.lru.PushFront(f)
				p.evictOverLimit()
			}
			p.mu.Unlock()
			close(f.done)
		}()
		defer func() {
			// A panicking cell must not take down the whole matrix: convert
			// the crash into this cell's typed error and let its siblings
			// finish (the sweep fabric classifies *PanicError into a
			// poison record).
			if r := recover(); r != nil {
				f.res = nil
				f.err = &PanicError{Cell: c, Key: key, Value: r, Stack: debug.Stack()}
			}
		}()
		p.mu.Lock()
		p.runs++
		p.mu.Unlock()
		f.res, f.err = c.Run()
	}()
	return f, true
}

// Run submits the cell and waits for its result.
func (p *Pool) Run(c core.Cell) (*core.Result, error) {
	f, _ := p.Submit(c)
	return f.Wait()
}

// Stats reports how many distinct simulations were executed and how many
// submissions were served from the memo cache.
func (p *Pool) Stats() (runs, hits int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.runs, p.hits
}

// MemoLen returns the number of futures currently memoized (completed
// and in flight).
func (p *Pool) MemoLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.memo)
}

// QueueDepth returns the number of fresh submissions that have not yet
// completed — cells running plus cells queued behind the worker bound.
func (p *Pool) QueueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inflight
}

// Observe registers the pool's scheduling and memo-cache accounting as
// pull probes under sc (typically a "pool" scope of a service or job
// registry), so queue depth and cache efficiency land in every metrics
// scrape and series snapshot:
//
//	runs         distinct simulations executed (counter)
//	hits         submissions served by the memo (counter)
//	evicts       LRU evictions (counter)
//	hit_pct      share of submissions that avoided a simulation (gauge)
//	queue_depth  fresh submissions queued or running (gauge)
//	memo_len     futures currently memoized (gauge)
//
// Probes are pull-only: an unscraped pool pays nothing. Registering the
// same scope twice panics (the obs probe-duplicate rule). Nil-safe on a
// nil scope.
func (p *Pool) Observe(sc *obs.Scope) {
	sc.ProbeCounter("runs", func() int64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return int64(p.runs)
	})
	sc.ProbeCounter("hits", func() int64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return int64(p.hits)
	})
	sc.ProbeCounter("evicts", func() int64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return int64(p.evicts)
	})
	sc.ProbeGauge("hit_pct", func() int64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		subs := p.runs + p.hits
		if subs == 0 {
			return 0
		}
		return int64(100 * p.hits / subs)
	})
	sc.ProbeGauge("queue_depth", func() int64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return int64(p.inflight)
	})
	sc.ProbeGauge("memo_len", func() int64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return int64(len(p.memo))
	})
}

// RunSeeds executes the application once per seed (cfg.Seed, cfg.Seed+1,
// ...) through the pool and aggregates the results. Futures are
// collected in seed order, so the aggregate is bit-identical to a
// sequential run.
func RunSeeds(p *Pool, app string, kind core.Kind, mode core.PrefetchMode, cfg core.Config, n int) (*core.SeedAggregate, error) {
	if n < 1 {
		n = 1
	}
	futs := make([]*Future, n)
	for i := 0; i < n; i++ {
		runCfg := cfg
		runCfg.Seed = cfg.Seed + int64(i)
		futs[i], _ = p.Submit(core.Cell{App: app, Kind: kind, Mode: mode, Cfg: runCfg})
	}
	agg := &core.SeedAggregate{Runs: n, MinExec: 1<<63 - 1}
	for _, f := range futs {
		res, err := f.Wait()
		if err != nil {
			return nil, err
		}
		agg.MeanExec += float64(res.ExecTime) / float64(n)
		agg.MeanRingHitRate += res.RingHitRate / float64(n)
		agg.MeanSwapTime += res.AvgSwapTime / float64(n)
		if res.ExecTime < agg.MinExec {
			agg.MinExec = res.ExecTime
		}
		if res.ExecTime > agg.MaxExec {
			agg.MaxExec = res.ExecTime
		}
	}
	return agg, nil
}
