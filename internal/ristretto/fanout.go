package ristretto

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// scratchPool keeps the fan-out workers' scratches between calls, so a
// worker's buffers arrive already grown and the allocations of a call do
// not grow with the worker count. fanOut releases a scratch's banks before
// it returns the scratch, so a pooled scratch is clean.
var scratchPool = sync.Pool{New: func() any { return NewTileScratch() }}

// fanOut runs fn for items 0..n-1 on at most runtime.GOMAXPROCS(0)
// goroutines. Each goroutine owns one pooled TileScratch and passes it to
// every item it claims. Items are claimed in ascending order but finish in
// any order: fn must write only item-owned results, which the caller reads
// after fanOut returns. With one worker everything runs on the caller's
// goroutine. The caller takes the scratches from the pool and, once every
// worker has returned, releases each one's banks into the accumulator
// they hold (no worker is left to contend for its lock) and returns it,
// so the next call on the same goroutine finds it.
//
// A panic in any worker stops the others from claiming further items and
// is re-raised on the caller once they have all returned, so a recover
// envelope around the caller (runner's per-cell one) still sees it. The
// scratches are then dropped, not pooled.
func fanOut(n int, fn func(s *TileScratch, i int)) {
	workers := min(n, runtime.GOMAXPROCS(0))
	if workers <= 0 {
		return
	}
	scratches := make([]*TileScratch, workers)
	for w := range scratches {
		scratches[w] = scratchPool.Get().(*TileScratch)
	}
	if workers == 1 {
		for i := range n {
			fn(scratches[0], i)
		}
	} else if pval, panicked := runWorkers(n, scratches, fn); panicked {
		panic(pval)
	}
	for _, s := range scratches {
		s.release()
		scratchPool.Put(s)
	}
}

// runWorkers runs fanOut's items on one goroutine per scratch and reports
// the first panic a worker recovered.
func runWorkers(n int, scratches []*TileScratch, fn func(s *TileScratch, i int)) (pval any, panicked bool) {
	var (
		next, worker atomic.Int64
		stop         atomic.Bool
		wg           sync.WaitGroup
		mu           sync.Mutex
	)
	work := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				stop.Store(true)
				mu.Lock()
				if !panicked {
					pval, panicked = r, true
				}
				mu.Unlock()
			}
		}()
		s := scratches[worker.Add(1)-1]
		for !stop.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			fn(s, i)
		}
	}
	wg.Add(len(scratches))
	for range scratches {
		go work()
	}
	wg.Wait()
	return pval, panicked
}
