package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ristretto/internal/faultinject"
)

// TestQuotaDenies proves per-tenant token buckets: a tenant that burns its
// burst gets 429s naming its quota, while another tenant's bucket is
// untouched.
func TestQuotaDenies(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.TenantRate = 0.0001 // effectively no refill within the test
		c.TenantBurst = 2
	})

	body := `{"net":"AlexNet","precision":"4b","scale":4,"seed":1}`
	var ok, denied int
	for i := 0; i < 5; i++ {
		resp, b := postH(t, ts, "/v1/model", body, map[string]string{"X-Tenant": "alice"})
		switch resp.StatusCode {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			denied++
			var ae struct {
				Quota string `json:"quota"`
			}
			if err := json.Unmarshal(b, &ae); err != nil || ae.Quota != "alice" {
				t.Fatalf("quota denial must name the tenant, got: %s", b)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("quota denial without Retry-After")
			}
		default:
			t.Fatalf("request %d = %d: %s", i, resp.StatusCode, b)
		}
	}
	if ok != 2 || denied != 3 {
		t.Fatalf("alice: ok=%d denied=%d, want 2 ok (burst) and 3 denied", ok, denied)
	}

	// A different tenant has its own bucket.
	resp, b := postH(t, ts, "/v1/model", body, map[string]string{"X-Tenant": "bob"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bob's first request = %d: %s (buckets must be per-tenant)", resp.StatusCode, b)
	}
	if got := s.quotaDenied.Load(); got != 3 {
		t.Fatalf("quota denied counter = %d, want 3", got)
	}
}

// TestQuotaOverflowBucket proves the tenant table is bounded: with
// MaxTenants 1, a second tenant shares the overflow bucket instead of
// growing the map.
func TestQuotaOverflowBucket(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.TenantRate = 0.0001
		c.TenantBurst = 1
		c.MaxTenants = 1
	})
	body := `{"net":"AlexNet","precision":"4b","scale":4,"seed":1}`
	for _, tenant := range []string{"a", "b", "c"} {
		postH(t, ts, "/v1/model", body, map[string]string{"X-Tenant": tenant})
	}
	// Tenant "a" owns the single tracked bucket; "b" and "c" share the one
	// overflow bucket, so the table never exceeds MaxTenants + 1.
	if n := s.quota.tracked(); n > 2 {
		t.Fatalf("quota table tracks %d buckets, want <= 2 (MaxTenants + overflow)", n)
	}
}

// TestPriorityHeaderValidation proves the header contract: unknown
// priorities are 400s, valid ones are accepted and counted per class.
func TestPriorityHeaderValidation(t *testing.T) {
	s, ts := newTestServer(t, nil)
	body := `{"net":"AlexNet","precision":"4b","scale":4,"seed":1}`

	resp, b := postH(t, ts, "/v1/model", body, map[string]string{"X-Priority": "urgent"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown priority = %d: %s, want 400", resp.StatusCode, b)
	}

	for _, pri := range []string{"interactive", "batch", "", "Batch"} {
		h := map[string]string{}
		if pri != "" {
			h["X-Priority"] = pri
		}
		if resp, b := postH(t, ts, "/v1/model", body, h); resp.StatusCode != http.StatusOK {
			t.Fatalf("priority %q = %d: %s, want 200", pri, resp.StatusCode, b)
		}
	}
	snap := s.reg.Snapshot()
	if n := snap.Counters["server.class.batch.requests"]; n != 2 {
		t.Fatalf("batch class requests = %d, want 2 (batch + Batch)", n)
	}
	if n := snap.Counters["server.class.interactive.requests"]; n < 2 {
		t.Fatalf("interactive class requests = %d, want >= 2 (explicit + default)", n)
	}
}

// TestBatchShedsBeforeInteractive proves the QoS ordering under queue
// pressure: with one worker, queue 4 and a batch share of 1, a saturating
// mixed burst sheds only batch-class traffic — every interactive request
// is served.
func TestBatchShedsBeforeInteractive(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.MaxConcurrent = 1
		c.MaxQueue = 4
		c.BatchQueueShare = 1
		c.CacheEntries = -1 // identical bodies must each hit admission
		c.Fault = faultinject.New(faultinject.Spec{Seed: 1, DelayProb: 1, Delay: 150 * time.Millisecond})
	})

	body := `{"net":"AlexNet","precision":"4b","scale":4,"seed":1}`

	// Pin the single worker slot so the burst below contends on the queue.
	fillerDone := make(chan struct{})
	go func() {
		defer close(fillerDone)
		postH(t, ts, "/v1/model", body, nil)
	}()
	time.Sleep(30 * time.Millisecond)

	// 3 batch + 3 interactive arrive together. The queue holds 4: batch may
	// take 1 place (its share), interactive the rest — so exactly two batch
	// requests shed and nothing else does, regardless of arrival order.
	type result struct {
		class  string
		status int
	}
	results := make(chan result, 6)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		for _, class := range []string{"batch", "interactive"} {
			wg.Add(1)
			go func(class string) {
				defer wg.Done()
				resp, _ := postH(t, ts, "/v1/model", body, map[string]string{"X-Priority": class})
				results <- result{class, resp.StatusCode}
			}(class)
		}
	}
	wg.Wait()
	close(results)
	<-fillerDone

	counts := map[result]int{}
	for r := range results {
		counts[r]++
	}
	if n := counts[result{"interactive", http.StatusOK}]; n != 3 {
		t.Fatalf("interactive 200s = %d, want 3 (interactive never sheds before batch): %v", n, counts)
	}
	if n := counts[result{"batch", http.StatusTooManyRequests}]; n != 2 {
		t.Fatalf("batch 429s = %d, want 2 (share is 1 queue place): %v", n, counts)
	}
	if n := counts[result{"batch", http.StatusOK}]; n != 1 {
		t.Fatalf("batch 200s = %d, want 1: %v", n, counts)
	}
	snap := s.reg.Snapshot()
	if n := snap.Counters["server.class.batch.shed"]; n != 2 {
		t.Fatalf("batch shed counter = %d, want 2", n)
	}
	if n := snap.Counters["server.class.interactive.shed"]; n != 0 {
		t.Fatalf("interactive shed counter = %d, want 0", n)
	}
}

// TestClassDegradeOrdering proves the two-level breaker: a soft-open
// breaker degrades batch-class sims to the analytic model while
// interactive sims still get the cycle simulator; only a hard-open breaker
// degrades interactive too.
func TestClassDegradeOrdering(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.BreakerThreshold = 10 * time.Millisecond
		c.BreakerHardFactor = 1000
		c.BreakerCooldown = 10 * time.Second
		c.CacheEntries = -1 // each request recomputes: per-request degradation decisions
	})

	simBody := `{"net":"AlexNet","layer":"conv1","precision":"4b","scale":32,"seed":1}`
	degraded := func(class string) bool {
		t.Helper()
		resp, b := postH(t, ts, "/v1/sim", simBody, map[string]string{"X-Priority": class})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sim (%s) = %d: %s", class, resp.StatusCode, b)
		}
		return bytes.Contains(b, []byte(`"degraded":true`))
	}

	if degraded("batch") || degraded("interactive") {
		t.Fatal("closed breaker degraded a request")
	}

	s.brk.observe(20 * time.Millisecond) // soft level only
	if !s.brk.open() || s.brk.hardOpen() {
		t.Fatalf("observe(2x threshold): soft=%v hard=%v, want soft only", s.brk.open(), s.brk.hardOpen())
	}
	if !degraded("batch") {
		t.Fatal("soft-open breaker did not degrade batch-class sim")
	}
	if degraded("interactive") {
		t.Fatal("soft-open breaker degraded interactive sim (must hold out until hard level)")
	}

	s.brk.observe(10 * 1000 * time.Millisecond) // hard level
	if !s.brk.hardOpen() {
		t.Fatal("observe(hardFactor x threshold) did not hard-open the breaker")
	}
	if !degraded("interactive") {
		t.Fatal("hard-open breaker did not degrade interactive sim")
	}
	if n := s.brk.HardTrips(); n != 1 {
		t.Fatalf("hard trips = %d, want 1", n)
	}
}

// TestTenantHeaderLimit proves oversized tenant names are rejected rather
// than stored.
func TestTenantHeaderLimit(t *testing.T) {
	_, ts := newTestServer(t, nil)
	long := strings.Repeat("x", 200)
	resp, b := postH(t, ts, "/v1/model", `{"net":"AlexNet","precision":"4b","scale":4,"seed":1}`,
		map[string]string{"X-Tenant": long})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized tenant = %d: %s, want 400", resp.StatusCode, b)
	}
}
