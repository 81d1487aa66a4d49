// Package runner provides the bounded, deterministic worker pool behind the
// experiment harness. Every figure, extension study and design-space sweep
// fans its independent cells out through Map; because each cell derives its
// own random stream (workload.DeriveSeed) and results are collected in index
// order, output is bit-identical regardless of the worker count — the golden
// determinism tests in internal/experiments enforce this.
//
// On top of the deterministic core, the pool is the repository's
// fault-isolation boundary: worker panics are recovered into typed
// *CellError values (cell index, stack, replay seed) instead of killing the
// process, cells honour a context for cancellation, and MapCfg adds per-cell
// timeouts, an all-failures keep-going mode, bounded retry-with-backoff for
// transient errors, and a runtime fault-injection hook (see
// internal/faultinject) used by the chaos tests.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ristretto/internal/telemetry"
)

// Pool is a concurrency budget for Map calls. It carries no state between
// calls — each Map spawns its own bounded worker set — so nested Map calls
// (a figure fanning out inside a parallel All) cannot deadlock on shared
// slots; the bound applies per fan-out level.
type Pool struct {
	workers int
}

// New returns a pool running at most workers jobs concurrently per Map call.
// workers <= 0 selects runtime.NumCPU().
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Pool{workers: workers}
}

// Serial is a single-worker pool: Map degenerates to an in-order loop.
func Serial() *Pool { return New(1) }

// Workers reports the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Fault is a fault-injection hook called at the start of every cell attempt
// with the cell index and the zero-based attempt number. A non-nil return
// fails the attempt with that error (retried like any other error if the
// config allows); a panicking hook exercises the pool's panic recovery. The
// hook runs inside the cell's recover/timeout envelope, so injected faults
// are indistinguishable from real ones. internal/faultinject builds
// seed-deterministic hooks; nil means no injection and costs nothing.
type Fault func(cell, attempt int) error

// Cfg tunes the fault-tolerance behaviour of one MapCfg call. The zero
// value reproduces plain Map: no timeout, stop at the lowest failing index,
// no retries, no fault injection.
type Cfg struct {
	// Timeout bounds each cell attempt's wall time; 0 disables. A cell that
	// exceeds it fails with a *CellError wrapping ErrCellTimeout. The
	// abandoned attempt's goroutine is not killed (Go cannot); its result is
	// discarded. Timeouts are a fault-tolerance net, not a scheduling tool:
	// a run whose cells finish nowhere near the bound stays deterministic,
	// one that races the bound does not.
	Timeout time.Duration

	// KeepGoing runs every cell even after failures and returns all of them
	// as CellErrors (sorted by cell index), instead of stopping at the
	// lowest failing index. Failed cells keep their zero-value results.
	KeepGoing bool

	// Retries is the maximum number of re-attempts per cell (0 = fail on
	// the first error). Only errors Retryable accepts are retried; panics
	// never are.
	Retries int

	// Backoff is the sleep before the first retry, doubling per attempt;
	// 0 retries immediately. The sleep aborts early on cancellation.
	Backoff time.Duration

	// Retryable classifies errors worth retrying. Nil with Retries > 0
	// retries everything except cancellation.
	Retryable func(err error) bool

	// Seed derives the replay seed recorded in CellErrors for cell i, so a
	// failure report carries everything needed to rerun the cell alone.
	// Nil leaves CellError.Seed zero.
	Seed func(cell int) int64

	// Fault is the fault-injection hook (nil = none).
	Fault Fault
}

// ErrCellTimeout is the cause recorded in a *CellError when a cell attempt
// exceeds Cfg.Timeout.
var ErrCellTimeout = errors.New("runner: cell timed out")

// CellError is one failed sweep cell: the index, the replay seed (when the
// config derives one), how many attempts were made, the recovered stack for
// panics, and the underlying error. Map and MapCfg report every failure
// through this type, so a crash inside a thousand-cell sweep surfaces as a
// replayable record instead of a dead process.
type CellError struct {
	Cell     int    // index of the failing cell
	Seed     int64  // replay seed from Cfg.Seed (0 when not derived)
	Attempts int    // attempts made, counting the first
	Stack    []byte // non-nil when the failure was a recovered panic
	TimedOut bool   // true when the failure was a Cfg.Timeout expiry
	Err      error  // the underlying error (or the panic value wrapped)
}

// Error renders the failure with its cell index, kind and replay seed.
func (e *CellError) Error() string {
	kind := "failed"
	switch {
	case e.Stack != nil:
		kind = "panicked"
	case e.TimedOut:
		kind = "timed out"
	}
	s := fmt.Sprintf("runner: cell %d %s", e.Cell, kind)
	if e.Attempts > 1 {
		s += fmt.Sprintf(" after %d attempts", e.Attempts)
	}
	if e.Seed != 0 {
		s += fmt.Sprintf(" (replay seed %d)", e.Seed)
	}
	return s + ": " + e.Err.Error()
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// CellErrors is the aggregate error of a keep-going MapCfg call: every
// failed cell in index order.
type CellErrors []*CellError

// Error summarizes the failure set.
func (es CellErrors) Error() string {
	if len(es) == 0 {
		return "runner: no cell errors"
	}
	if len(es) == 1 {
		return es[0].Error()
	}
	return fmt.Sprintf("runner: %d cells failed; first: %s", len(es), es[0].Error())
}

// Unwrap exposes the individual cell errors to errors.Is/As.
func (es CellErrors) Unwrap() []error {
	out := make([]error, len(es))
	for i, e := range es {
		out[i] = e
	}
	return out
}

// AsCellErrors flattens any error a Map/MapCfg call can return into its cell
// failures: a CellErrors aggregate is returned as-is, a single *CellError
// becomes a one-element slice, and anything else (nil, a context error)
// yields nil.
func AsCellErrors(err error) CellErrors {
	var es CellErrors
	if errors.As(err, &es) {
		return es
	}
	var e *CellError
	if errors.As(err, &e) {
		return CellErrors{e}
	}
	return nil
}

// taps bundles the pool's telemetry handles; a nil *taps (registry disabled)
// keeps the hot path free of registry traffic.
type taps struct {
	cells    *telemetry.Counter
	panics   *telemetry.Counter
	retries  *telemetry.Counter
	timeouts *telemetry.Counter
	cellNS   *telemetry.Histogram
	depth    *telemetry.Histogram
	inflight atomic.Int64
}

// newTaps resolves the handles once per Map call when telemetry is enabled.
func newTaps() *taps {
	r := telemetry.Default
	if !r.Enabled() {
		return nil
	}
	return &taps{
		cells:    r.Counter("runner.cells"),
		panics:   r.Counter("runner.panics_recovered"),
		retries:  r.Counter("runner.retries"),
		timeouts: r.Counter("runner.cell_timeouts"),
		cellNS:   r.Histogram("runner.cell_ns"),
		depth:    r.Histogram("runner.queue_depth"),
	}
}

// Map runs fn(i) for every i in [0, n) on the pool's workers and returns the
// results in index order. A cell error (or recovered panic) cancels the
// remaining not-yet-started jobs, and the failure of the lowest failing
// index is returned as a *CellError — the same cell a serial loop stopping
// at its first failure would report, so error propagation is independent of
// the worker count. Results of jobs that completed before cancellation are
// still filled in. A cancelled ctx stops new cells from starting and is
// returned (unwrapped) when no cell failed first.
func Map[T any](ctx context.Context, p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCfg(ctx, p, Cfg{}, n, fn)
}

// MapCfg is Map with explicit fault-tolerance configuration: per-cell
// timeouts, keep-going failure collection, bounded retry-with-backoff and
// fault injection (see Cfg). The bit-identity guarantee is unchanged: for
// any worker count the successful results and the set of reported failures
// are the same (timeouts excepted — see Cfg.Timeout).
func MapCfg[T any](ctx context.Context, p *Pool, cfg Cfg, n int, fn func(i int) (T, error)) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Retries > 0 && cfg.Retryable == nil {
		cfg.Retryable = func(err error) bool {
			return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
		}
	}
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	t := newTaps()

	errs := make([]*CellError, n)
	var next atomic.Int64
	next.Store(-1)
	// failed tracks the lowest failing index in stop mode: jobs past it are
	// never started, because a serial run would not have reached them.
	var failed atomic.Int64
	failed.Store(int64(n))

	worker := func() {
		for {
			i := int(next.Add(1))
			if i >= n {
				return
			}
			if !cfg.KeepGoing && int64(i) > failed.Load() {
				return
			}
			if ctx.Err() != nil {
				return
			}
			v, ce := runCell(ctx, cfg, t, i, fn)
			if ce != nil {
				errs[i] = ce
				if !cfg.KeepGoing {
					for {
						cur := failed.Load()
						if int64(i) >= cur || failed.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
				// Recycle the worker: a failing cell must not shrink the
				// pool, or keep-going sweeps with many failures would slowly
				// serialize and finally stall.
				continue
			}
			out[i] = v
		}
	}

	if workers == 1 {
		worker()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				worker()
			}()
		}
		wg.Wait()
	}

	if cfg.KeepGoing {
		var ces CellErrors
		for _, e := range errs {
			if e != nil {
				ces = append(ces, e)
			}
		}
		if len(ces) > 0 {
			return out, ces
		}
	} else if f := failed.Load(); f < int64(n) {
		return out, errs[f]
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// runCell executes one cell with retries, wrapping any terminal failure
// into a *CellError.
func runCell[T any](ctx context.Context, cfg Cfg, t *taps, i int, fn func(i int) (T, error)) (T, *CellError) {
	var zero T
	if t != nil {
		t.depth.Observe(t.inflight.Add(1))
		start := time.Now()
		defer func() {
			t.cellNS.Observe(time.Since(start).Nanoseconds())
			t.inflight.Add(-1)
			t.cells.Inc()
		}()
	}
	attempts := 0
	for {
		v, err, stack, timedOut := attempt(ctx, cfg, t, i, attempts, fn)
		attempts++
		if err == nil {
			return v, nil
		}
		// Panics are never retried: they indicate a bug, not a transient
		// condition, and the stack is the evidence worth surfacing.
		retry := stack == nil && attempts <= cfg.Retries &&
			cfg.Retryable != nil && cfg.Retryable(err) && ctx.Err() == nil
		if retry {
			if t != nil {
				t.retries.Inc()
			}
			if cfg.Backoff > 0 {
				shift := attempts - 1
				if shift > 16 {
					shift = 16
				}
				retry = SleepCtx(ctx, cfg.Backoff<<shift)
			}
		}
		if retry {
			continue
		}
		ce := &CellError{Cell: i, Attempts: attempts, Stack: stack, TimedOut: timedOut, Err: err}
		if cfg.Seed != nil {
			ce.Seed = cfg.Seed(i)
		}
		return zero, ce
	}
}

// attempt runs one cell attempt under the recover (and optional timeout)
// envelope: the fault hook first, then fn. A recovered panic comes back as
// an error plus its stack.
func attempt[T any](ctx context.Context, cfg Cfg, t *taps, i, try int, fn func(i int) (T, error)) (v T, err error, stack []byte, timedOut bool) {
	exec := func() (v T, err error, stack []byte) {
		defer func() {
			if r := recover(); r != nil {
				stack = debug.Stack()
				err = fmt.Errorf("panic: %v", r)
				if t != nil {
					t.panics.Inc()
				}
			}
		}()
		if cfg.Fault != nil {
			if ferr := cfg.Fault(i, try); ferr != nil {
				return v, ferr, nil
			}
		}
		v, err = fn(i)
		return v, err, nil
	}
	if cfg.Timeout <= 0 {
		v, err, stack = exec()
		return v, err, stack, false
	}
	type result struct {
		v     T
		err   error
		stack []byte
	}
	ch := make(chan result, 1)
	go func() {
		var r result
		r.v, r.err, r.stack = exec()
		ch <- r
	}()
	timer := time.NewTimer(cfg.Timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.v, r.err, r.stack, false
	case <-timer.C:
		if t != nil {
			t.timeouts.Inc()
		}
		return v, ErrCellTimeout, nil, true
	case <-ctx.Done():
		return v, ctx.Err(), nil, false
	}
}

// SleepCtx sleeps for d unless ctx is cancelled first, reporting whether the
// full sleep completed. A d of zero or less returns at once, with no timer.
func SleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}
