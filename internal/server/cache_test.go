package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ristretto/internal/faultinject"
	"ristretto/internal/telemetry"
)

// stripVolatile removes the two documented volatile envelope fields
// (cached, elapsed_ms) from a JSON response and re-marshals it with sorted
// keys, so memoized and cold payloads can be compared byte for byte.
func stripVolatile(t *testing.T, body []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("unmarshal response: %v\n%s", err, body)
	}
	delete(m, "cached")
	delete(m, "elapsed_ms")
	out, err := json.Marshal(m) // map keys marshal sorted
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMemoBitExact proves the memoization contract: a cache hit is
// byte-identical to the cold computation modulo the volatile envelope
// fields, and is flagged cached=true.
func TestMemoBitExact(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, tc := range []struct{ path, body string }{
		{"/v1/model", `{"net":"AlexNet","precision":"8b","scale":32,"seed":3}`},
		{"/v1/sim", `{"net":"AlexNet","layer":"conv1","precision":"4b","scale":32,"seed":3}`},
		{"/v1/quant", `{"bits":[8,4],"n":10000,"seed":7}`},
	} {
		resp1, cold := post(t, ts, tc.path, tc.body)
		if resp1.StatusCode != http.StatusOK {
			t.Fatalf("%s cold = %d: %s", tc.path, resp1.StatusCode, cold)
		}
		if bytes.Contains(cold, []byte(`"cached":true`)) {
			t.Fatalf("%s first response flagged cached: %s", tc.path, cold)
		}
		resp2, hot := post(t, ts, tc.path, tc.body)
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("%s hot = %d: %s", tc.path, resp2.StatusCode, hot)
		}
		if !bytes.Contains(hot, []byte(`"cached":true`)) {
			t.Fatalf("%s second response not flagged cached: %s", tc.path, hot)
		}
		if c, h := stripVolatile(t, cold), stripVolatile(t, hot); !bytes.Equal(c, h) {
			t.Fatalf("%s memoized payload differs from cold:\ncold: %s\nhot:  %s", tc.path, c, h)
		}
	}
}

// TestMemoSingleflightDedup proves a thundering herd of one configuration
// costs one computation: with the leader's compute pinned slow, N identical
// concurrent requests produce exactly one miss, the rest hits or in-flight
// dedups, and every body agrees.
func TestMemoSingleflightDedup(t *testing.T) {
	for _, tc := range []struct{ path, body string }{
		{"/v1/model", `{"net":"AlexNet","precision":"4b","scale":4,"seed":9}`},
		{"/v1/sim", `{"net":"AlexNet","layer":"conv1","precision":"4b","scale":32,"seed":9}`},
	} {
		var reg *telemetry.Registry
		_, ts := newTestServer(t, func(c *Config) {
			reg = c.Registry
			c.Fault = faultinject.New(faultinject.Spec{Seed: 1, DelayProb: 1, Delay: 50 * time.Millisecond})
		})

		const n = 16
		bodies := make([][]byte, n)
		statuses := make([]int, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
				if err != nil {
					t.Errorf("%s request %d: %v", tc.path, i, err)
					return
				}
				defer resp.Body.Close()
				statuses[i] = resp.StatusCode
				buf := new(bytes.Buffer)
				buf.ReadFrom(resp.Body)
				bodies[i] = buf.Bytes()
			}(i)
		}
		wg.Wait()

		want := stripVolatile(t, bodies[0])
		for i := 0; i < n; i++ {
			if statuses[i] != http.StatusOK {
				t.Fatalf("%s request %d = %d: %s", tc.path, i, statuses[i], bodies[i])
			}
			if got := stripVolatile(t, bodies[i]); !bytes.Equal(got, want) {
				t.Fatalf("%s request %d payload differs:\n%s\nvs\n%s", tc.path, i, got, want)
			}
		}
		snap := reg.Snapshot()
		misses := snap.Counters["server.cache.misses"]
		hits := snap.Counters["server.cache.hits"]
		dedup := snap.Counters["server.cache.inflight_dedup"]
		if misses != 1 {
			t.Fatalf("%s misses = %d, want 1 (one leader computes)", tc.path, misses)
		}
		if hits+dedup != n-1 {
			t.Fatalf("%s hits %d + dedup %d = %d, want %d", tc.path, hits, dedup, hits+dedup, n-1)
		}
	}
}

// TestMemoLeaderEnvelope proves a joiner never inherits its leader's own
// envelope: with every compute pinned at 300 ms, a leader that gives up at
// 50 ms (its deadline_ms, or its client hanging up) fails alone, and a
// patient identical request that joined its fill makes its own attempt
// and gets 200.
func TestMemoLeaderEnvelope(t *testing.T) {
	for _, ep := range []struct{ path, fields string }{
		{"/v1/model", `"net":"AlexNet","precision":"4b","scale":32,"seed":4`},
		{"/v1/sim", `"net":"AlexNet","layer":"conv1","precision":"4b","scale":32,"seed":4`},
	} {
		for _, hangUp := range []bool{false, true} {
			var reg *telemetry.Registry
			_, ts := newTestServer(t, func(c *Config) {
				reg = c.Registry
				c.Fault = faultinject.New(faultinject.Spec{Seed: 1, DelayProb: 1, Delay: 300 * time.Millisecond})
			})
			ctx := context.Background()
			leaderBody := `{` + ep.fields + `,"deadline_ms":50}`
			if hangUp {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 50*time.Millisecond)
				defer cancel()
				leaderBody = `{` + ep.fields + `}`
			}
			type outcome struct {
				status  int // -1: the client gave up
				elapsed time.Duration
			}
			leader := make(chan outcome, 1)
			go func() {
				req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+ep.path, strings.NewReader(leaderBody))
				start := time.Now()
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					leader <- outcome{-1, time.Since(start)}
					return
				}
				resp.Body.Close()
				leader <- outcome{resp.StatusCode, time.Since(start)}
			}()
			awaitFill(t, reg, 1)
			resp, b := post(t, ts, ep.path, `{`+ep.fields+`,"deadline_ms":5000}`)
			lo := <-leader
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s (leader hangs up: %v): patient joiner = %d %s, want 200", ep.path, hangUp, resp.StatusCode, b)
			}
			if dedup := reg.Snapshot().Counters["server.cache.inflight_dedup"]; dedup < 1 {
				t.Errorf("%s (leader hangs up: %v): the patient request never joined the leader's fill", ep.path, hangUp)
			}
			switch {
			case hangUp && lo.status != -1:
				t.Errorf("%s: hung-up leader got %d", ep.path, lo.status)
			case !hangUp && (lo.status != http.StatusGatewayTimeout || lo.elapsed > 250*time.Millisecond):
				t.Errorf("%s: 50 ms leader got %d after %v, want a 504 on time", ep.path, lo.status, lo.elapsed)
			}
		}
	}
}

// awaitFill returns once the memo has started n fills: with every
// compute pinned slow, the n-th fill is then still in flight.
func awaitFill(t *testing.T, reg *telemetry.Registry, n int64) {
	t.Helper()
	awaitCounter(t, reg, "server.cache.misses", n)
}

// awaitCounter returns once the counter name has reached n.
func awaitCounter(t *testing.T, reg *telemetry.Registry, name string, n int64) {
	t.Helper()
	for give := time.Now().Add(10 * time.Second); reg.Counter(name).Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(give) {
			t.Fatalf("%s never reached %d", name, n)
		}
	}
}

// TestMemoDegradedAnswers proves a degraded sim answer is served but never
// stored, so the same request gets the cycle simulator once the breaker
// closes; and that an interactive request joining a batch-class fill at
// soft-open does not take the leader's degraded answer, which its own
// class would not get, but computes its own.
func TestMemoDegradedAnswers(t *testing.T) {
	var reg *telemetry.Registry
	s, ts := newTestServer(t, func(c *Config) {
		reg = c.Registry
		c.BreakerThreshold = 10 * time.Millisecond
		c.BreakerHardFactor = 1000
		c.BreakerCooldown = 10 * time.Second
		c.Fault = faultinject.New(faultinject.Spec{Seed: 1, DelayProb: 1, Delay: 200 * time.Millisecond})
	})
	type answer struct {
		status int
		sr     SimResponse
	}
	sim := func(body, class string) answer {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sim", strings.NewReader(body))
		req.Header.Set(PriorityHeader, class)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return answer{status: -1}
		}
		defer resp.Body.Close()
		a := answer{status: resp.StatusCode}
		json.NewDecoder(resp.Body).Decode(&a.sr)
		return a
	}

	s.brk.observe(20 * time.Millisecond) // soft-open: batch degrades, interactive does not
	x := `{"net":"AlexNet","layer":"conv1","precision":"4b","scale":32,"seed":5}`
	if a := sim(x, "batch"); a.status != http.StatusOK || a.sr.Engine != "analytic" {
		t.Fatalf("batch sim at soft-open = %d engine %q, want 200 analytic", a.status, a.sr.Engine)
	}
	s.brk.softUntil.Store(0) // the breaker closes
	if a := sim(x, "batch"); a.status != http.StatusOK || a.sr.Engine != "core-sim" || a.sr.Cached {
		t.Fatalf("after the breaker closed = %d engine %q cached %v, want an uncached core-sim answer",
			a.status, a.sr.Engine, a.sr.Cached)
	}

	s.brk.observe(20 * time.Millisecond)
	y := `{"net":"AlexNet","layer":"conv1","precision":"4b","scale":32,"seed":6}`
	leader := make(chan answer, 1)
	go func() { leader <- sim(y, "batch") }()
	awaitFill(t, reg, 3) // x filled twice, then the batch leader's fill of y
	joiner := sim(y, "interactive")
	if a := <-leader; a.status != http.StatusOK || a.sr.Engine != "analytic" {
		t.Errorf("batch leader at soft-open = %d engine %q, want 200 analytic", a.status, a.sr.Engine)
	}
	if joiner.status != http.StatusOK || joiner.sr.Engine != "core-sim" {
		t.Errorf("interactive joiner at soft-open = %d engine %q, want 200 core-sim", joiner.status, joiner.sr.Engine)
	}
	if dedup := reg.Snapshot().Counters["server.cache.inflight_dedup"]; dedup < 1 {
		t.Error("the interactive request never joined the batch leader's fill")
	}
}

// TestMemoLRUEviction proves the cache is bounded: with capacity 2, a
// third key evicts the oldest and re-requesting it is a fresh miss.
func TestMemoLRUEviction(t *testing.T) {
	var reg *telemetry.Registry
	s, ts := newTestServer(t, func(c *Config) {
		reg = c.Registry
		c.CacheEntries = 2
	})

	body := func(seed int) string {
		return `{"net":"AlexNet","precision":"4b","scale":4,"seed":` + string(rune('0'+seed)) + `}`
	}
	for _, seed := range []int{1, 2, 3, 1} { // 3 evicts 1; 1 again misses
		resp, b := post(t, ts, "/v1/model", body(seed))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d = %d: %s", seed, resp.StatusCode, b)
		}
	}
	snap := reg.Snapshot()
	if misses := snap.Counters["server.cache.misses"]; misses != 4 {
		t.Fatalf("misses = %d, want 4 (evicted key recomputes)", misses)
	}
	if hits := snap.Counters["server.cache.hits"]; hits != 0 {
		t.Fatalf("hits = %d, want 0", hits)
	}
	if ev := snap.Counters["server.cache.evictions"]; ev < 1 {
		t.Fatalf("evictions = %d, want >= 1", ev)
	}
	if n := s.memo.Len(); n > 2 {
		t.Fatalf("cache holds %d entries, capacity 2", n)
	}
}

// TestMemoErrorsNotCached proves a failed fill is not stored: each request
// after a failure elects a new leader and recomputes.
func TestMemoErrorsNotCached(t *testing.T) {
	var reg *telemetry.Registry
	_, ts := newTestServer(t, func(c *Config) {
		reg = c.Registry
		c.Fault = faultinject.New(faultinject.Spec{Seed: 1, Panic: 1})
	})
	for i := 0; i < 2; i++ {
		resp, _ := post(t, ts, "/v1/model", `{"net":"AlexNet","precision":"4b","scale":4,"seed":5}`)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d = %d, want 500 (injected panic)", i, resp.StatusCode)
		}
	}
	snap := reg.Snapshot()
	if misses := snap.Counters["server.cache.misses"]; misses != 2 {
		t.Fatalf("misses = %d, want 2 (errors never cached)", misses)
	}
}

// TestMemoDisabled proves CacheEntries < 0 switches memoization off: the
// second identical request recomputes and is never flagged cached.
func TestMemoDisabled(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.CacheEntries = -1 })
	if s.memo != nil {
		t.Fatal("memo cache built despite CacheEntries < 0")
	}
	for i := 0; i < 2; i++ {
		resp, b := post(t, ts, "/v1/model", `{"net":"AlexNet","precision":"4b","scale":4,"seed":5}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d = %d: %s", i, resp.StatusCode, b)
		}
		if bytes.Contains(b, []byte(`"cached":true`)) {
			t.Fatalf("request %d flagged cached with cache disabled: %s", i, b)
		}
	}
}

// simBurst sends n identical /v1/sim requests at once and returns their
// decoded answers, failing the test on any status but 200.
func simBurst(t *testing.T, ts *httptest.Server, n int, body string) []SimResponse {
	t.Helper()
	out := make([]SimResponse, n)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sim", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			b := new(bytes.Buffer)
			b.ReadFrom(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d = %d: %s", i, resp.StatusCode, b)
				return
			}
			if err := json.Unmarshal(b.Bytes(), &out[i]); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := range out {
		if out[i].Cycles != out[0].Cycles {
			t.Fatalf("request %d cycles %d != %d", i, out[i].Cycles, out[0].Cycles)
		}
	}
	return out
}

// TestBatchCoalesceIdentical proves a burst of identical /v1/sim requests
// collapses into one simulation: the memo's leader computes, and every
// other request is answered with its result, flagged cached.
func TestBatchCoalesceIdentical(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Fault = faultinject.New(faultinject.Spec{Seed: 1, DelayProb: 1, Delay: 50 * time.Millisecond})
	})
	const n = 8
	cached := 0
	for _, sr := range simBurst(t, ts, n, `{"net":"AlexNet","layer":"conv1","precision":"4b","scale":32,"seed":2}`) {
		if sr.Cached {
			cached++
		}
	}
	if sims := s.seq.Load(); sims != 1 {
		t.Fatalf("%d simulations ran, want 1", sims)
	}
	if cached != n-1 {
		t.Fatalf("%d answers flagged cached, want %d (all but the leader's)", cached, n-1)
	}
}

// TestBatchDisabled proves CacheEntries < 0 restores the direct sim path:
// a burst of identical /v1/sim requests is not coalesced, each request
// runs its own simulation, and no answer is flagged cached.
func TestBatchDisabled(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.CacheEntries = -1
		c.BreakerThreshold = -1 // queued requests must not degrade to the analytic engine
		c.Fault = faultinject.New(faultinject.Spec{Seed: 1, DelayProb: 1, Delay: 20 * time.Millisecond})
	})
	const n = 4
	for i, sr := range simBurst(t, ts, n, `{"net":"AlexNet","layer":"conv1","precision":"4b","scale":32,"seed":2}`) {
		if sr.Cached {
			t.Fatalf("request %d flagged cached with memoization disabled", i)
		}
	}
	if sims := s.seq.Load(); sims != n {
		t.Fatalf("%d simulations ran, want %d (one per request)", sims, n)
	}
}

// TestBatchPanicIsolation proves a panicking /v1/sim 500s only its own
// request: a distinct simulation in flight beside it still answers 200.
func TestBatchPanicIsolation(t *testing.T) {
	// Simulations are numbered in arrival order; seed 2 at p=0.5 panics
	// simulation 1 and spares simulation 2 (the schedule is deterministic
	// in (seed, simulation)).
	s, ts := newTestServer(t, func(c *Config) {
		c.Fault = faultinject.New(faultinject.Spec{Seed: 2, Panic: 0.5})
	})
	status := make([]int, 2)
	var wg sync.WaitGroup
	for i, body := range []string{
		`{"net":"AlexNet","layer":"conv1","precision":"4b","scale":32,"seed":2}`,
		`{"net":"AlexNet","layer":"conv2","precision":"4b","scale":32,"seed":2}`,
	} {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sim", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			resp.Body.Close()
			status[i] = resp.StatusCode
		}(i, body)
		time.Sleep(10 * time.Millisecond) // deterministic arrival order
	}
	wg.Wait()
	if status[0] != http.StatusInternalServerError || status[1] != http.StatusOK {
		t.Fatalf("statuses %v: want the panicking conv1 sim's isolated 500 and conv2's 200", status)
	}
	if got := s.panics.Load(); got != 1 {
		t.Fatalf("panics_recovered = %d, want 1", got)
	}
}

// postH is post with extra headers.
func postH(t *testing.T, ts *httptest.Server, path, body string, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}
