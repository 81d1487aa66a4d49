package server

import (
	"bytes"
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
			resp, err := http.Post(ts.URL+"/v1/model", "application/json",
				strings.NewReader(`{"net":"AlexNet","precision":"4b","scale":4,"seed":9}`))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
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
			t.Fatalf("request %d = %d: %s", i, statuses[i], bodies[i])
		}
		if got := stripVolatile(t, bodies[i]); !bytes.Equal(got, want) {
			t.Fatalf("request %d payload differs:\n%s\nvs\n%s", i, got, want)
		}
	}
	snap := reg.Snapshot()
	misses := snap.Counters["server.cache.misses"]
	hits := snap.Counters["server.cache.hits"]
	dedup := snap.Counters["server.cache.inflight_dedup"]
	if misses != 1 {
		t.Fatalf("misses = %d, want 1 (one leader computes)", misses)
	}
	if hits+dedup != n-1 {
		t.Fatalf("hits %d + dedup %d = %d, want %d", hits, dedup, hits+dedup, n-1)
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
