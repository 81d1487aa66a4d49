package server

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"ristretto/internal/accel"
	"ristretto/internal/telemetry"
)

// TestStatsSharedAcrossEndpoints: the daemon synthesizes each workload once.
// One cold /v1/model, the same key for the other eight accelerator names
// (memo misses, stats hits), then a /v1/cell at the same seed and scale:
// server.stats.misses counts the distinct workloads touched.
func TestStatsSharedAcrossEndpoints(t *testing.T) {
	var reg *telemetry.Registry
	_, ts := newTestServer(t, func(c *Config) { reg = c.Registry })
	for _, name := range accel.Names() {
		body := fmt.Sprintf(`{"net":"AlexNet","precision":"4b","scale":64,"seed":3,"accel":%q}`, name)
		if resp, b := post(t, ts, "/v1/model", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d: %s", name, resp.StatusCode, b)
		}
	}
	// figure12 on AlexNet reads AlexNet at 8b, 4b, 2b and mix2/4, all at
	// granularity 2: 4b is stored already, the other three are new.
	cell := `{"seed":3,"scale":64,"nets":["AlexNet"],"cell":"figure12","deadline_ms":60000}`
	if resp, b := post(t, ts, "/v1/cell", cell); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/cell = %d: %s", resp.StatusCode, b)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["server.stats.misses"]; got != 4 {
		t.Fatalf("server.stats.misses = %d, want 4 (one per distinct workload)", got)
	}
	if got := snap.Counters["server.stats.hits"]; got != 9 {
		t.Fatalf("server.stats.hits = %d, want 9 (eight siblings + 4b in the cell)", got)
	}
	if got := snap.Gauges["server.stats.bytes"]; got <= 0 {
		t.Fatalf("server.stats.bytes = %d, want the stored statistics' size", got)
	}
}

// TestStatsConcurrentMissesFillOnce: concurrent /v1/model requests that
// differ only in accelerator all miss the memo cache and compute at once,
// yet synthesize their shared workload once; every answer still matches
// the one a request on a fresh daemon computes for itself.
func TestStatsConcurrentMissesFillOnce(t *testing.T) {
	names := accel.Names()
	var reg *telemetry.Registry
	_, ts := newTestServer(t, func(c *Config) {
		reg = c.Registry
		c.MaxConcurrent = len(names)
	})
	body := func(name string) string {
		return fmt.Sprintf(`{"net":"AlexNet","precision":"2b","scale":64,"seed":4,"accel":%q}`, name)
	}
	bodies := make([][]byte, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/model", "application/json", strings.NewReader(body(name)))
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s = %d: %s", name, resp.StatusCode, buf.Bytes())
			}
			bodies[i] = buf.Bytes()
		}(i, name)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	c := reg.Snapshot().Counters
	if got := c["server.stats.misses"]; got != 1 {
		t.Fatalf("server.stats.misses = %d, want 1 (one synthesis)", got)
	}
	if got := c["server.stats.hits"] + c["server.stats.inflight_dedup"]; got != int64(len(names)-1) {
		t.Fatalf("stats hits + inflight_dedup = %d, want %d", got, len(names)-1)
	}
	_, fresh := newTestServer(t, nil)
	for i, name := range names {
		resp, want := post(t, fresh, "/v1/model", body(name))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s on a fresh daemon = %d: %s", name, resp.StatusCode, want)
		}
		if got, want := stripVolatile(t, bodies[i]), stripVolatile(t, want); !bytes.Equal(got, want) {
			t.Fatalf("%s with shared statistics answered\n%s\nalone\n%s", name, got, want)
		}
	}
}
