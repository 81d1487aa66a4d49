package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ristretto/internal/telemetry"
)

// slowWorker proxies a real worker, delaying every response by d.
func slowWorker(t *testing.T, backend *httptest.Server, d time.Duration) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(d):
		case <-r.Context().Done():
			return
		}
		backend.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestFleetHedgedStraggler: with one worker stalling every request well
// past the fixed hedge delay, the coordinator must race stragglers onto
// the fast worker, take the hedge's verified result, and stay
// byte-identical to serial.
func TestFleetHedgedStraggler(t *testing.T) {
	backend := newWorker(t, nil)
	slow := slowWorker(t, backend, 2*time.Second)
	fast := newWorker(t, nil)

	cfg := fleetCfg(slow.URL, fast.URL)
	cfg.HedgeAfter = 100 * time.Millisecond
	start := time.Now()
	rs, rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(rs); got != serialGolden() {
		t.Fatalf("hedged sweep differs from serial:\n%s", firstDiff(t, got, serialGolden()))
	}
	if rep.HedgesLaunched == 0 {
		t.Error("no hedges launched despite a 2s straggler and a 100ms hedge delay")
	}
	if rep.HedgeWins == 0 {
		t.Error("no hedge ever beat the 2s straggler")
	}
	hedged := 0
	for _, o := range rep.Outcomes {
		if o.Hedged {
			hedged++
		}
	}
	if hedged == 0 {
		t.Error("no outcome marked hedged")
	}
	// Sanity bound, generous for CI: without hedging the slow worker's
	// share alone would cost its cell count × 2s.
	if elapsed := time.Since(start); elapsed > 90*time.Second {
		t.Errorf("hedged sweep took %v", elapsed)
	}
}

// TestFleetHedgeDisabledByDefault: the zero-value HedgeAfter must never
// launch a speculative attempt, even with a straggler present.
func TestFleetHedgeDisabledByDefault(t *testing.T) {
	backend := newWorker(t, nil)
	slow := slowWorker(t, backend, 250*time.Millisecond)
	fast := newWorker(t, nil)

	cfg := fleetCfg(slow.URL, fast.URL)
	rs, rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if render(rs) != serialGolden() {
		t.Fatal("sweep differs from serial")
	}
	if rep.HedgesLaunched != 0 {
		t.Errorf("HedgeAfter=0 launched %d hedges", rep.HedgesLaunched)
	}
}

// TestHedgeDelayResolution covers the three HedgeAfter regimes: disabled,
// fixed, and adaptive (which stays silent until the latency histogram has
// enough samples, then tracks 3×P95 with a floor).
func TestHedgeDelayResolution(t *testing.T) {
	mk := func(after time.Duration) *coord {
		r := telemetry.NewRegistry()
		return &coord{cfg: Config{HedgeAfter: after}, latency: r.Histogram("fleet.attempt_ms")}
	}

	if _, ok := mk(0).hedgeDelay(); ok {
		t.Error("HedgeAfter=0 resolved to hedging")
	}
	if d, ok := mk(150 * time.Millisecond).hedgeDelay(); !ok || d != 150*time.Millisecond {
		t.Errorf("fixed delay resolved to (%v, %v)", d, ok)
	}

	c := mk(HedgeAuto)
	if _, ok := c.hedgeDelay(); ok {
		t.Error("adaptive delay hedged with zero samples")
	}
	for i := 0; i < hedgeMinSamples; i++ {
		c.latency.Observe(20)
	}
	d, ok := c.hedgeDelay()
	if !ok {
		t.Fatal("adaptive delay still silent with enough samples")
	}
	if d < hedgeFloor {
		t.Errorf("adaptive delay %v below floor %v", d, hedgeFloor)
	}
	if d > time.Second {
		t.Errorf("adaptive delay %v implausible for a 20ms P95", d)
	}
}

// TestRetryBackoff pins the backoff policy: server Retry-After hints are
// honored, the default grows exponentially from 100ms, everything is
// capped near 5s, and the ±25% jitter is deterministic in (seed, cell,
// strike).
func TestRetryBackoff(t *testing.T) {
	within := func(d, base time.Duration) bool {
		return d >= base*3/4 && d <= base*5/4
	}
	if d := retryBackoff(1, 2*time.Second, 1, "table4"); !within(d, 2*time.Second) {
		t.Errorf("Retry-After 2s → %v, want 2s ±25%%", d)
	}
	if d := retryBackoff(1, 0, 1, "table4"); !within(d, backoffBase) {
		t.Errorf("strike 1 → %v, want %v ±25%%", d, backoffBase)
	}
	if d := retryBackoff(3, 0, 1, "table4"); !within(d, 4*backoffBase) {
		t.Errorf("strike 3 → %v, want %v ±25%%", d, 4*backoffBase)
	}
	if d := retryBackoff(20, 0, 1, "table4"); d > backoffCap*5/4 {
		t.Errorf("strike 20 → %v, exceeds cap %v (+jitter)", d, backoffCap)
	}
	if d := retryBackoff(2, time.Hour, 1, "table4"); d > backoffCap*5/4 {
		t.Errorf("Retry-After 1h → %v, want capped at %v (+jitter)", d, backoffCap)
	}
	if a, b := retryBackoff(2, 0, 7, "figure9"), retryBackoff(2, 0, 7, "figure9"); a != b {
		t.Errorf("backoff not deterministic: %v vs %v", a, b)
	}
	if a, b := retryBackoff(2, 0, 7, "figure9"), retryBackoff(2, 0, 7, "table4"); a == b {
		t.Log("jitter collision across cells (possible but unlikely)")
	}
}

// TestParseRetryAfter covers the delay-seconds form and the garbage the
// parser must shrug off.
func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"2", 2 * time.Second},
		{"0", 0},
		{"-3", 0},
		{"soon", 0},
		{"1.5", 0},
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.in); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestFleetRetryAfterHonored: a worker shedding load with 429+Retry-After
// is retried — after the hinted delay — and the sweep still completes
// byte-identical. The hint keeps the retry from hammering the worker
// faster than it asked.
func TestFleetRetryAfterHonored(t *testing.T) {
	backend := newWorker(t, nil)
	var shed atomic.Int64
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Shed the first two requests, then behave.
		if shed.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		backend.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(shedding.Close)

	cfg := fleetCfg(shedding.URL)
	cfg.WorkerStrikes = 10
	start := time.Now()
	rs, rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if render(rs) != serialGolden() {
		t.Fatal("sweep differs from serial after load shedding")
	}
	if rep.Reassigned == 0 {
		t.Error("shed requests recorded no retries")
	}
	// Two sheds with Retry-After: 1 (±25% jitter) must cost at least ~1.5s
	// of honored backoff on the single worker.
	if elapsed := time.Since(start); elapsed < 1400*time.Millisecond {
		t.Errorf("sweep finished in %v — Retry-After hints not honored", elapsed)
	}
}
