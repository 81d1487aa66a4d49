package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var ctx = context.Background()

func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		p := New(workers)
		got, err := Map(ctx, p, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapBoundedConcurrency(t *testing.T) {
	const limit = 3
	p := New(limit)
	var inFlight, peak atomic.Int64
	_, err := Map(ctx, p, 50, func(i int) (struct{}, error) {
		cur := inFlight.Add(1)
		for {
			m := peak.Load()
			if cur <= m || peak.CompareAndSwap(m, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > limit {
		t.Fatalf("observed %d concurrent jobs, bound is %d", p, limit)
	}
	if p := peak.Load(); p < 2 {
		t.Fatalf("observed no concurrency (peak %d) with %d workers", p, limit)
	}
}

func TestMapFirstErrorWins(t *testing.T) {
	// Whatever the worker count, the reported error must be the one a serial
	// loop would hit first (lowest index), not whichever fired first.
	for _, workers := range []int{1, 4, 16} {
		p := New(workers)
		_, err := Map(ctx, p, 40, func(i int) (int, error) {
			if i == 7 || i == 23 {
				// Make the later failure race ahead of the earlier one.
				if i == 7 {
					time.Sleep(5 * time.Millisecond)
				}
				return 0, fmt.Errorf("job %d failed", i)
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		var ce *CellError
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: err is %T, want *CellError", workers, err)
		}
		if ce.Cell != 7 {
			t.Fatalf("workers=%d: failing cell = %d, want lowest index 7", workers, ce.Cell)
		}
		if ce.Err.Error() != "job 7 failed" {
			t.Fatalf("workers=%d: underlying error %q, want %q", workers, ce.Err, "job 7 failed")
		}
	}
}

func TestMapErrorCancelsRemaining(t *testing.T) {
	p := New(2)
	var started atomic.Int64
	sentinel := errors.New("boom")
	_, err := Map(ctx, p, 1000, func(i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, sentinel
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if s := started.Load(); s > 10 {
		t.Fatalf("%d jobs started after early failure; cancellation not effective", s)
	}
}

func TestMapCompletedResultsSurviveError(t *testing.T) {
	p := New(1)
	out, err := Map(ctx, p, 5, func(i int) (int, error) {
		if i == 3 {
			return 0, errors.New("stop")
		}
		return i + 1, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	for i := 0; i < 3; i++ {
		if out[i] != i+1 {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], i+1)
		}
	}
}

func TestMapZeroJobsAndDefaults(t *testing.T) {
	if got, err := Map(ctx, New(4), 0, func(i int) (int, error) { return 0, errors.New("never") }); err != nil || len(got) != 0 {
		t.Fatalf("zero jobs: %v, %d results", err, len(got))
	}
	if New(0).Workers() < 1 {
		t.Fatal("default pool has no workers")
	}
	if Serial().Workers() != 1 {
		t.Fatal("Serial pool not single-worker")
	}
}

func TestMapParallelMatchesSerial(t *testing.T) {
	// The engine's core promise: identical output for any worker count.
	job := func(i int) (string, error) { return fmt.Sprintf("r%d", i*7%13), nil }
	want, err := Map(ctx, Serial(), 64, job)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, workers := range []int{2, 5, 32} {
		workers := workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := Map(ctx, New(workers), 64, job)
			if err != nil {
				t.Errorf("workers=%d: %v", workers, err)
				return
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("workers=%d: out[%d] = %q, want %q", workers, i, got[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestMapRecoversPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		cfg := Cfg{Seed: func(cell int) int64 { return int64(1000 + cell) }}
		_, err := MapCfg(ctx, p, cfg, 20, func(i int) (int, error) {
			if i == 5 {
				panic("cell exploded")
			}
			return i, nil
		})
		var ce *CellError
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: err = %v (%T), want *CellError", workers, err, err)
		}
		if ce.Cell != 5 {
			t.Fatalf("workers=%d: cell = %d, want 5", workers, ce.Cell)
		}
		if ce.Seed != 1005 {
			t.Fatalf("workers=%d: replay seed = %d, want 1005", workers, ce.Seed)
		}
		if ce.Stack == nil || !strings.Contains(string(ce.Stack), "runner") {
			t.Fatalf("workers=%d: no usable stack recorded", workers)
		}
		if !strings.Contains(ce.Error(), "cell exploded") {
			t.Fatalf("workers=%d: message %q lost the panic value", workers, ce.Error())
		}
	}
}

func TestMapContextCancellationMidSweep(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	p := New(4)
	_, err := Map(cctx, p, 1000, func(i int) (int, error) {
		if started.Add(1) == 8 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := started.Load(); s > 50 {
		t.Fatalf("%d cells started after cancellation", s)
	}
}

func TestMapKeepGoingCollectsAllFailures(t *testing.T) {
	// Regression for worker attrition: with many failing cells every worker
	// records errors repeatedly; each must keep pulling work, so the whole
	// sweep completes with real concurrency and reports every failure.
	const n = 200
	p := New(4)
	var ran atomic.Int64
	var inFlight, peak atomic.Int64
	_, err := MapCfg(ctx, p, Cfg{KeepGoing: true}, n, func(i int) (int, error) {
		ran.Add(1)
		cur := inFlight.Add(1)
		for {
			m := peak.Load()
			if cur <= m || peak.CompareAndSwap(m, cur) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		inFlight.Add(-1)
		if i%2 == 0 {
			return 0, fmt.Errorf("cell %d bad", i)
		}
		return i, nil
	})
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d cells, want all %d (worker attrition?)", got, n)
	}
	if p := peak.Load(); p < 2 {
		t.Fatalf("peak concurrency %d: failing cells shrank the pool", p)
	}
	ces := AsCellErrors(err)
	if len(ces) != n/2 {
		t.Fatalf("got %d cell errors, want %d", len(ces), n/2)
	}
	for k, ce := range ces {
		if ce.Cell != 2*k {
			t.Fatalf("cell errors not index-ordered: errs[%d].Cell = %d", k, ce.Cell)
		}
	}
}

func TestMapRetryTransientErrors(t *testing.T) {
	transient := errors.New("transient")
	var flaky sync.Map // cell -> remaining failures
	fn := func(i int) (int, error) {
		if i%5 == 0 {
			v, _ := flaky.LoadOrStore(i, new(atomic.Int64))
			if v.(*atomic.Int64).Add(1) <= 2 {
				return 0, transient
			}
		}
		return i * 3, nil
	}
	cfg := Cfg{Retries: 3, Retryable: func(err error) bool { return errors.Is(err, transient) }}
	out, err := MapCfg(ctx, New(4), cfg, 30, fn)
	if err != nil {
		t.Fatalf("retries did not absorb transient errors: %v", err)
	}
	for i, v := range out {
		if v != i*3 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*3)
		}
	}
	// Exhausted retries must surface with the attempt count.
	flaky = sync.Map{}
	cfg.Retries = 1
	_, err = MapCfg(ctx, New(2), cfg, 6, fn)
	var ce *CellError
	if !errors.As(err, &ce) || ce.Cell != 0 || ce.Attempts != 2 {
		t.Fatalf("err = %v, want cell 0 after 2 attempts", err)
	}
	if !errors.Is(err, transient) {
		t.Fatal("underlying transient error not unwrappable")
	}
}

func TestMapRetryDeterminism(t *testing.T) {
	// Same deterministic failure pattern -> same final bits and same failure
	// set for every worker count.
	transient := errors.New("flaky")
	mk := func() func(i int) (string, error) {
		var attempts sync.Map
		return func(i int) (string, error) {
			v, _ := attempts.LoadOrStore(i, new(atomic.Int64))
			a := v.(*atomic.Int64).Add(1)
			if i%7 == 3 && a == 1 {
				return "", transient // succeeds on retry
			}
			if i%11 == 5 {
				return "", fmt.Errorf("hard failure %d", i)
			}
			return fmt.Sprintf("v%d", i*i%97), nil
		}
	}
	cfg := Cfg{KeepGoing: true, Retries: 2, Retryable: func(err error) bool { return errors.Is(err, transient) }}
	want, wantErr := MapCfg(ctx, Serial(), cfg, 120, mk())
	for _, workers := range []int{2, 8} {
		got, err := MapCfg(ctx, New(workers), cfg, 120, mk())
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %q, want %q", workers, i, got[i], want[i])
			}
		}
		wces, gces := AsCellErrors(wantErr), AsCellErrors(err)
		if len(wces) != len(gces) {
			t.Fatalf("workers=%d: %d failures, serial had %d", workers, len(gces), len(wces))
		}
		for k := range wces {
			if wces[k].Cell != gces[k].Cell || wces[k].Err.Error() != gces[k].Err.Error() {
				t.Fatalf("workers=%d: failure[%d] = %v, serial had %v", workers, k, gces[k], wces[k])
			}
		}
	}
}

func TestMapCellTimeout(t *testing.T) {
	cfg := Cfg{Timeout: 10 * time.Millisecond}
	_, err := MapCfg(ctx, New(2), cfg, 4, func(i int) (int, error) {
		if i == 2 {
			time.Sleep(2 * time.Second)
		}
		return i, nil
	})
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CellError", err)
	}
	if ce.Cell != 2 || !ce.TimedOut || !errors.Is(err, ErrCellTimeout) {
		t.Fatalf("err = %+v, want timeout on cell 2", ce)
	}
}

func TestMapFaultHook(t *testing.T) {
	// The hook can fail, panic, or delay; injected failures are retried like
	// real ones.
	var hookCalls atomic.Int64
	cfg := Cfg{
		Retries:   2,
		Retryable: func(error) bool { return true },
		Fault: func(cell, attempt int) error {
			hookCalls.Add(1)
			if cell == 3 && attempt == 0 {
				return errors.New("injected transient")
			}
			if cell == 6 && attempt == 0 {
				panic("injected panic")
			}
			return nil
		},
	}
	out, err := MapCfg(ctx, New(2), cfg, 10, func(i int) (int, error) { return i + 1, nil })
	if err != nil {
		// Panics are not retried, so cell 6 fails terminally.
		var ce *CellError
		if !errors.As(err, &ce) || ce.Cell != 6 || ce.Stack == nil {
			t.Fatalf("err = %v, want panic CellError on cell 6", err)
		}
	} else {
		t.Fatal("expected injected panic to fail cell 6")
	}
	if out[3] != 4 {
		t.Fatalf("cell 3 = %d, want recovery after injected transient", out[3])
	}
	if hookCalls.Load() == 0 {
		t.Fatal("fault hook never called")
	}
}

func TestAsCellErrors(t *testing.T) {
	if AsCellErrors(nil) != nil {
		t.Fatal("nil error should flatten to nil")
	}
	if AsCellErrors(context.Canceled) != nil {
		t.Fatal("context error should flatten to nil")
	}
	single := &CellError{Cell: 4, Err: errors.New("x")}
	if got := AsCellErrors(single); len(got) != 1 || got[0] != single {
		t.Fatalf("single CellError flattened to %v", got)
	}
	multi := CellErrors{{Cell: 1, Err: errors.New("a")}, {Cell: 2, Err: errors.New("b")}}
	if got := AsCellErrors(multi); len(got) != 2 {
		t.Fatalf("CellErrors flattened to %v", got)
	}
	if !strings.Contains(multi.Error(), "2 cells failed") {
		t.Fatalf("aggregate message %q", multi.Error())
	}
}

// TestSleepCtxCancellation: a backoff sleep must abort promptly when the
// sweep is cancelled, not run out its full duration.
func TestSleepCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if SleepCtx(ctx, 10*time.Second) {
		t.Error("cancelled sleep reported completion")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled sleep took %v", elapsed)
	}
	if !SleepCtx(context.Background(), time.Millisecond) {
		t.Error("completed sleep reported cancellation")
	}
}

// TestBackoffCancelPrompt is the regression guard for context-aware retry
// backoff: cancelling the context while a cell sleeps between attempts must
// abort the sleep immediately — not wait out the full (here: 10s) backoff —
// and surface the cell's failure.
func TestBackoffCancelPrompt(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	errTransient := errors.New("transient")
	attempts := atomic.Int64{}
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := MapCfg(cctx, Serial(), Cfg{
		Retries:   5,
		Backoff:   10 * time.Second,
		Retryable: func(error) bool { return true },
	}, 1, func(i int) (int, error) {
		attempts.Add(1)
		return 0, errTransient
	})
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation did not abort the backoff sleep: returned after %v", elapsed)
	}
	if err == nil {
		t.Fatal("cancelled retry loop reported success")
	}
	ces := AsCellErrors(err)
	if len(ces) != 1 || !errors.Is(ces[0], errTransient) {
		t.Fatalf("expected the cell's transient failure, got %v", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("cell ran %d attempts; cancellation mid-backoff should stop after the first", got)
	}
}
