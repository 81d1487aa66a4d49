package memo

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ristretto/internal/telemetry"
)

// waitFor polls until cond holds: the concurrent tests wait on callers
// reaching a flight, which no channel signals.
func waitFor(cond func() bool) {
	for !cond() {
		time.Sleep(time.Millisecond)
	}
}

func value(v int) func() (int, error) { return func() (int, error) { return v, nil } }

// TestDoFillsOnce: concurrent misses on one key run one fill; every caller
// gets its value, and only the filler is told the value was not shared.
func TestDoFillsOnce(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New[int](4, nil, reg, "m", "entries")
	release := make(chan struct{})
	var fills atomic.Int32
	fill := func() (int, error) {
		fills.Add(1)
		<-release
		return 42, nil
	}

	const n = 16
	var wg sync.WaitGroup
	var fillers atomic.Int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := c.Do(context.Background(), "k", fill, nil)
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v; want 42, nil", v, err)
			}
			if !shared {
				fillers.Add(1)
			}
		}()
	}
	waitFor(func() bool { return reg.Counter("m.inflight_dedup").Load() == n-1 })
	close(release)
	wg.Wait()

	if f := fills.Load(); f != 1 {
		t.Fatalf("fill ran %d times, want 1", f)
	}
	if f := fillers.Load(); f != 1 {
		t.Fatalf("%d callers report an unshared value, want 1", f)
	}
	if m := reg.Counter("m.misses").Load(); m != 1 {
		t.Fatalf("misses = %d, want 1", m)
	}
	if v, shared, _ := c.Do(context.Background(), "k", value(0), nil); v != 42 || !shared {
		t.Fatalf("stored value = %d (shared %v), want the fill's 42", v, shared)
	}
}

// TestDoFailedFillNotStored: a fill that returns an error stores nothing,
// its waiters get the same error, and the next caller fills again.
func TestDoFailedFillNotStored(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New[int](4, nil, reg, "m", "entries")
	boom := errors.New("boom")
	release := make(chan struct{})
	waiter := make(chan error, 1)
	go func() {
		waitFor(func() bool { return reg.Counter("m.misses").Load() == 1 })
		_, _, err := c.Do(context.Background(), "k", value(0), nil)
		waiter <- err
	}()
	go func() {
		waitFor(func() bool { return reg.Counter("m.inflight_dedup").Load() == 1 })
		close(release)
	}()
	_, _, err := c.Do(context.Background(), "k", func() (int, error) {
		<-release
		return 0, boom
	}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("filler got %v, want boom", err)
	}
	if err := <-waiter; !errors.Is(err, boom) {
		t.Fatalf("waiter got %v, want the filler's error", err)
	}
	if c.Len() != 0 {
		t.Fatalf("failed fill stored: %d entries", c.Len())
	}
	if v, shared, err := c.Do(context.Background(), "k", value(7), nil); v != 7 || shared || err != nil {
		t.Fatalf("after a failure Do = %d, %v, %v; want a fresh fill of 7", v, shared, err)
	}
}

// TestDoPanickedFillNotStored: a fill that panics stores nothing; the
// filler and its waiters panic with the fill's value, and the next caller
// fills again.
func TestDoPanickedFillNotStored(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New[int](4, nil, reg, "m", "entries")
	release := make(chan struct{})
	panics := make(chan any, 2)
	call := func(fill func() (int, error)) {
		defer func() { panics <- recover() }()
		c.Do(context.Background(), "k", fill, nil)
	}
	go call(func() (int, error) {
		<-release
		panic("boom")
	})
	waitFor(func() bool { return reg.Counter("m.misses").Load() == 1 })
	go call(value(0))
	waitFor(func() bool { return reg.Counter("m.inflight_dedup").Load() == 1 })
	close(release)
	for i := 0; i < 2; i++ {
		if p := <-panics; p != "boom" {
			t.Fatalf("caller %d recovered %v, want the fill's panic", i, p)
		}
	}
	if v, shared, err := c.Do(context.Background(), "k", value(7), nil); v != 7 || shared || err != nil {
		t.Fatalf("after a panic Do = %d, %v, %v; want a fresh fill of 7", v, shared, err)
	}
}

// TestDoWaiterGivesUp: a waiter whose context ends returns its error while
// the fill goes on and stores its value.
func TestDoWaiterGivesUp(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New[int](4, nil, reg, "m", "entries")
	release := make(chan struct{})
	filled := make(chan struct{})
	go func() {
		defer close(filled)
		c.Do(context.Background(), "k", func() (int, error) {
			<-release
			return 42, nil
		}, nil)
	}()
	waitFor(func() bool { return reg.Counter("m.misses").Load() == 1 })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, "k", value(0), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}
	close(release)
	<-filled
	if v, _, _ := c.Do(context.Background(), "k", value(0), nil); v != 42 {
		t.Fatalf("stored value = %d, want the fill's 42", v)
	}
}

// failingFill blocks until release closes, then fails with err.
func failingFill(release chan struct{}, err error) func() (int, error) {
	return func() (int, error) {
		<-release
		return 0, err
	}
}

// TestDoWaiterMakesOwnAttempt: a waiter does not take an error its test
// marks as the filler's own. It runs its own fill and returns its own
// value, unshared, and counts once as a joiner.
func TestDoWaiterMakesOwnAttempt(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New[int](4, nil, reg, "m", "entries")
	shed := errors.New("the filler's shed")
	release := make(chan struct{})
	filler := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", failingFill(release, shed), nil)
		filler <- err
	}()
	waitFor(func() bool { return reg.Counter("m.misses").Load() == 1 })
	go func() {
		waitFor(func() bool { return reg.Counter("m.inflight_dedup").Load() == 1 })
		close(release)
	}()
	if v, shared, err := c.Do(context.Background(), "k", value(7), func(error) bool { return true }); v != 7 || shared || err != nil {
		t.Fatalf("waiter Do = %d, %v, %v; want its own fill of 7, unshared", v, shared, err)
	}
	if err := <-filler; !errors.Is(err, shed) {
		t.Fatalf("filler got %v, want its own error", err)
	}
	if d, m := reg.Counter("m.inflight_dedup").Load(), reg.Counter("m.misses").Load(); d != 1 || m != 2 {
		t.Fatalf("inflight_dedup = %d, misses = %d; want 1 join and 2 fills", d, m)
	}
	if v, ok := c.Get("k"); !ok || v != 7 {
		t.Fatalf("stored value = %d, %v; want the waiter's 7", v, ok)
	}
}

// TestDoOwnAttemptEndsWithCtx: a waiter sent to its own attempt gives up
// with ctx.Err() when its ctx ends before that attempt or while the
// attempt waits on a newer fill, without running its own fill, and counts
// once as a joiner however many fills it joined.
func TestDoOwnAttemptEndsWithCtx(t *testing.T) {
	for _, during := range []bool{false, true} {
		reg := telemetry.NewRegistry()
		c := New[int](4, nil, reg, "m", "entries")
		release, release2 := make(chan struct{}), make(chan struct{})
		go c.Do(context.Background(), "k", failingFill(release, errors.New("own")), nil)
		waitFor(func() bool { return reg.Counter("m.misses").Load() == 1 })
		go func() {
			waitFor(func() bool { return reg.Counter("m.inflight_dedup").Load() == 1 })
			close(release)
		}()
		newer := make(chan int, 1)
		ctx, cancel := context.WithCancel(context.Background())
		test := func(error) bool {
			if !during {
				cancel()
				return true
			}
			// A newer caller fills the key before the waiter's own attempt,
			// and the waiter's ctx ends while it waits on that fill. Should
			// the cancel land before the attempt, the outcome is the same.
			go func() {
				v, _, _ := c.Do(context.Background(), "k", func() (int, error) { <-release2; return 3, nil }, nil)
				newer <- v
			}()
			waitFor(func() bool { return reg.Counter("m.misses").Load() == 2 })
			time.AfterFunc(20*time.Millisecond, cancel)
			return true
		}
		_, _, err := c.Do(ctx, "k", func() (int, error) {
			t.Errorf("during=%v: the waiter filled after its ctx ended", during)
			return 0, nil
		}, test)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("during=%v: waiter got %v, want context.Canceled", during, err)
		}
		if d := reg.Counter("m.inflight_dedup").Load(); d != 1 {
			t.Fatalf("during=%v: inflight_dedup = %d, want the waiter counted once", during, d)
		}
		close(release2)
		if during {
			if v := <-newer; v != 3 {
				t.Fatalf("newer fill = %d, want 3", v)
			}
		}
		cancel()
	}
}

// TestDoEvictsByCost: the store stays within its cost budget by evicting
// the least recently used values, and the gauge reports the cost in use.
func TestDoEvictsByCost(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New[string](10, func(v string) int64 { return int64(len(v)) }, reg, "m", "bytes")
	fill := func(v string) func() (string, error) { return func() (string, error) { return v, nil } }
	ctx := context.Background()
	c.Do(ctx, "a", fill("aaaa"), nil)
	c.Do(ctx, "b", fill("bbbb"), nil)
	c.Do(ctx, "a", fill(""), nil) // a is now more recent than b
	c.Do(ctx, "c", fill("ccc"), nil)

	if got := reg.Counter("m.evictions").Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if got := reg.Gauge("m.bytes").Load(); got != 7 {
		t.Fatalf("bytes in use = %d, want 7 (aaaa + ccc)", got)
	}
	if v, ok := c.Get("a"); !ok || v != "aaaa" {
		t.Fatalf("recently used a = %q, %v; want it kept", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("least recently used b was kept over budget")
	}
}
