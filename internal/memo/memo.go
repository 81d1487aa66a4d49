// Package memo is the repository's in-memory LRU + singleflight helper: a
// string-keyed store bounded by a cost budget, where a miss elects one
// caller to fill the key and concurrent callers for that key wait for its
// fill instead of repeating it.
//
// ristretto-serve builds both of its stores on it: the /v1/model,
// /v1/sim and /v1/quant response memo (each response costs one) and the
// layer statistics shared by /v1/model and /v1/cell (each value costs its
// bytes).
// Every experiments.Bench reads its statistics through one, and
// cellcache.Do singleflights its fills through one with a zero budget
// (its payloads live on disk, so that cache holds only fills in progress).
//
// A fill that returns an error or panics stores nothing. The callers
// waiting on it get the same error, or panic with the same value, and the
// next caller fills again, so a store that lives as long as its process
// never keeps a failure. An error the caller marks as the filler's own is
// not shared either: each waiter then makes its own attempt (see Do).
package memo

import (
	"container/list"
	"context"
	"sync"

	"ristretto/internal/telemetry"
)

// Cache is a string-keyed LRU store with singleflight fill, safe for
// concurrent use. Build one with New.
type Cache[V any] struct {
	budget int64
	cost   func(V) int64

	mu      sync.Mutex // guards used, ll, entries and flights; never held across a fill or cost call
	used    int64
	ll      *list.List // front = most recently used; elements hold *entry[V]
	entries map[string]*list.Element
	flights map[string]*flight[V]

	hits, misses, dedup, evictions *telemetry.Counter
	usedGauge                      *telemetry.Gauge
}

// entry is one stored value with the cost it was charged.
type entry[V any] struct {
	key  string
	val  V
	cost int64
}

// flight is one fill in progress. Once done is closed, panicked tells
// whether pval or (val, err) is the outcome.
type flight[V any] struct {
	done     chan struct{}
	val      V
	err      error
	panicked bool
	pval     any
}

// New returns a cache that holds values whose costs sum to at most
// budget, evicting the least recently used beyond it. A nil cost charges
// one per value, making budget an entry count. When r is non-nil the cache
// reports into it: counters prefix.hits, prefix.misses,
// prefix.inflight_dedup and prefix.evictions, and the gauge prefix.unit
// holding the cost in use. With a nil r the counters stay private.
func New[V any](budget int64, cost func(V) int64, r *telemetry.Registry, prefix, unit string) *Cache[V] {
	if cost == nil {
		cost = func(V) int64 { return 1 }
	}
	if r == nil {
		r = telemetry.NewRegistry()
	}
	return &Cache[V]{
		budget:    budget,
		cost:      cost,
		ll:        list.New(),
		entries:   map[string]*list.Element{},
		flights:   map[string]*flight[V]{},
		hits:      r.Counter(prefix + ".hits"),
		misses:    r.Counter(prefix + ".misses"),
		dedup:     r.Counter(prefix + ".inflight_dedup"),
		evictions: r.Counter(prefix + ".evictions"),
		usedGauge: r.Gauge(prefix + "." + unit),
	}
}

// Do returns the value stored under key. On a miss the caller becomes the
// key's filler: it runs fill and stores the value fill returns. Callers
// that arrive while a fill runs wait for it, and give up with ctx.Err()
// when ctx is done first; the fill goes on regardless. shared reports that
// the value came from the store or from another caller's fill.
//
// A fill that returns an error or panics stores nothing: the filler and
// its waiters return that error, or panic with that value, and the next
// caller for the key fills again. The exception is an error for which
// fillerOnly (nil: none) reports true: it belongs to the filler's own
// envelope (its shed, deadline expiry or client going away), so a waiter
// never takes it but makes its own attempt within ctx, joining a newer
// fill or filling itself. A waiter counts once in prefix.inflight_dedup.
func (c *Cache[V]) Do(ctx context.Context, key string, fill func() (V, error), fillerOnly func(error) bool) (v V, shared bool, err error) {
	joined := false
	c.mu.Lock()
	for {
		if v, ok := c.hit(key); ok {
			c.mu.Unlock()
			return v, true, nil
		}
		fl, ok := c.flights[key]
		if !ok {
			break
		}
		if !joined {
			joined = true
			c.dedup.Inc()
		}
		c.mu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return v, true, ctx.Err()
		}
		if fl.panicked {
			panic(fl.pval)
		}
		if fl.err == nil || fillerOnly == nil || !fillerOnly(fl.err) {
			return fl.val, true, fl.err
		}
		if err := ctx.Err(); err != nil {
			return v, true, err
		}
		c.mu.Lock()
	}
	fl := &flight[V]{done: make(chan struct{})}
	c.flights[key] = fl
	c.misses.Inc()
	c.mu.Unlock()

	returned := false
	defer func() {
		if !returned {
			// fill or cost panicked (or fill exited its goroutine): store
			// nothing, release the waiters to panic with the same value and
			// let the panic go on up the filler's stack.
			fl.panicked, fl.pval = true, recover()
			c.finish(key, fl, 0)
			if fl.pval != nil {
				panic(fl.pval)
			}
		}
	}()
	fl.val, fl.err = fill()
	var cost int64
	if fl.err == nil {
		cost = c.cost(fl.val)
	}
	returned = true
	c.finish(key, fl, cost)
	return fl.val, false, fl.err
}

// Get returns the value stored under key, if any, without filling it. A
// found value counts as a hit; a miss counts nothing.
func (c *Cache[V]) Get(key string) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hit(key)
}

// hit looks key up with c.mu held, counting a hit and refreshing the
// value's recency when found.
func (c *Cache[V]) hit(key string) (v V, ok bool) {
	el, ok := c.entries[key]
	if ok {
		c.ll.MoveToFront(el)
		c.hits.Inc()
		v = el.Value.(*entry[V]).val
	}
	return v, ok
}

// finish ends a flight: a successful value enters the store at the front,
// evicting from the back while the store is over budget, and the flight's
// waiters are released.
func (c *Cache[V]) finish(key string, fl *flight[V], cost int64) {
	c.mu.Lock()
	delete(c.flights, key)
	if fl.err == nil && !fl.panicked {
		c.entries[key] = c.ll.PushFront(&entry[V]{key: key, val: fl.val, cost: cost})
		c.used += cost
		for c.used > c.budget {
			e := c.ll.Remove(c.ll.Back()).(*entry[V])
			delete(c.entries, e.key)
			c.used -= e.cost
			c.evictions.Inc()
		}
		c.usedGauge.Set(c.used)
	}
	c.mu.Unlock()
	close(fl.done)
}

// Len reports how many values the cache holds.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
