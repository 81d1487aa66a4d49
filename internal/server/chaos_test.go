package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ristretto/internal/faultinject"
	"ristretto/internal/telemetry"
)

// TestOverloadSheds proves the admission gate bounds work at saturation:
// with 2 slots + 2 queue places and every admitted request pinned for
// 150ms, a burst of 30 must shed the overflow synchronously with
// 429 + Retry-After while queue depth never exceeds slots + queue.
func TestOverloadSheds(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.MaxConcurrent = 2
		c.MaxQueue = 2
		// Disable memoization: this test hammers one identical body, which
		// the cache would collapse into a single computation instead of
		// exercising the admission gate.
		c.CacheEntries = -1
		c.Fault = faultinject.New(faultinject.Spec{Seed: 1, DelayProb: 1, Delay: 150 * time.Millisecond})
	})

	const burst = 30
	statuses := make([]int, burst)
	retryAfter := make([]string, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/model", "application/json",
				strings.NewReader(`{"net":"AlexNet","scale":32}`))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if retryAfter[i] == "" {
				t.Errorf("request %d: 429 without Retry-After", i)
			}
		default:
			t.Errorf("request %d: unexpected status %d", i, st)
		}
	}
	if ok < 2 || ok > 4 {
		t.Errorf("served %d requests, want 2..4 (slots + queue)", ok)
	}
	if shed != burst-ok {
		t.Errorf("shed %d, want %d (burst minus served)", shed, burst-ok)
	}
	if got := s.shed.Load(); got != int64(shed) {
		t.Errorf("shed counter %d != observed 429s %d", got, shed)
	}
	// Queue depth (queued + in-flight) must have stayed within the bound:
	// memory at saturation is slots + queue places, not the burst size.
	if depth := s.reg.Snapshot().Histograms["server.queue_depth"]; depth.Max > 4 {
		t.Errorf("queue depth peaked at %d, bound is 4", depth.Max)
	}
	if s.QueueDepth() != 0 {
		t.Errorf("queue depth %d after drain, want 0", s.QueueDepth())
	}
}

// TestPanicIsolation proves a panicking request is an isolated 500: the
// process (and the worker slot) survives, and health stays green.
func TestPanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Fault = faultinject.New(faultinject.Spec{Seed: 1, Panic: 1})
	})
	for _, tc := range []struct{ path, body string }{
		{"/v1/model", `{"net":"AlexNet","scale":32}`},
		{"/v1/sim", `{"net":"AlexNet","layer":"conv1","scale":32}`},
	} {
		for i := 0; i < 3; i++ {
			resp, b := post(t, ts, tc.path, tc.body)
			if resp.StatusCode != http.StatusInternalServerError || !bytes.Contains(b, []byte("panicked")) {
				t.Fatalf("%s request %d: got %d %s, want 500 mentioning the panic", tc.path, i, resp.StatusCode, b)
			}
		}
	}
	if got := s.panics.Load(); got != 6 {
		t.Fatalf("panics_recovered = %d, want 6", got)
	}
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d after panics, want 200", resp.StatusCode)
	}
	// The slots all released: a clean server on the same admission numbers
	// would now serve, which classify() already guarantees via MapCfg — but
	// prove it end to end by checking queue depth returned to zero.
	if s.QueueDepth() != 0 {
		t.Fatalf("queue depth %d after panics, want 0", s.QueueDepth())
	}
}

// TestBreakerDegradesToAnalytic proves the degradation ladder: when queue
// wait crosses the breaker threshold, /v1/sim answers from the analytic
// model flagged degraded=true instead of running the cycle simulator.
func TestBreakerDegradesToAnalytic(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.MaxConcurrent = 1
		c.MaxQueue = 4
		c.BreakerThreshold = time.Millisecond
		c.BreakerCooldown = 10 * time.Second
		c.Fault = faultinject.New(faultinject.Spec{Seed: 1, DelayProb: 1, Delay: 100 * time.Millisecond})
	})

	// Occupy the single slot for ~100ms.
	blockerDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/model", "application/json",
			strings.NewReader(`{"net":"AlexNet","scale":32}`))
		if err != nil {
			blockerDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		blockerDone <- resp.StatusCode
	}()
	time.Sleep(30 * time.Millisecond) // let the blocker take the slot

	// This sim request queues behind the blocker; its own wait (~70ms)
	// crosses the 1ms threshold at admission, so it degrades itself.
	resp, b := post(t, ts, "/v1/sim", `{"net":"ResNet-18","layer":"conv3_2","scale":32}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("queued sim = %d: %s", resp.StatusCode, b)
	}
	var sr SimResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatalf("bad sim response: %v", err)
	}
	if !sr.Degraded || sr.Engine != "analytic" {
		t.Fatalf("queued sim not degraded: engine=%q degraded=%v", sr.Engine, sr.Degraded)
	}
	if sr.Cycles <= 0 {
		t.Fatalf("degraded answer has no estimate: %+v", sr)
	}
	if !s.brk.open() || s.brk.Trips() < 1 {
		t.Fatalf("breaker open=%v trips=%d, want open with >= 1 trip", s.brk.open(), s.brk.Trips())
	}
	if got := s.degraded.Load(); got < 1 {
		t.Fatalf("degraded counter = %d, want >= 1", got)
	}
	if st := <-blockerDone; st != http.StatusOK {
		t.Fatalf("blocker request finished %d, want 200", st)
	}
}

// TestGracefulDrain proves the SIGTERM path end to end minus the signal:
// StartDrain flips readiness and rejects new work with 503 while a request
// already in flight completes, and http.Server.Shutdown returns cleanly.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{
		Registry:     telemetry.NewRegistry(),
		DefaultScale: 32,
		Fault:        faultinject.New(faultinject.Spec{Seed: 1, DelayProb: 1, Delay: 200 * time.Millisecond}),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()

	inflightDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/model", "application/json",
			strings.NewReader(`{"net":"AlexNet","scale":32}`))
		if err != nil {
			inflightDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflightDone <- resp.StatusCode
	}()
	time.Sleep(50 * time.Millisecond) // request is now inside its 200ms delay

	s.StartDrain()
	if !s.draining.Load() {
		t.Fatal("draining false after StartDrain")
	}
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(base+"/v1/model", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("draining")) {
		t.Fatalf("new work while draining = %d %s, want 503 draining", resp.StatusCode, body)
	}
	if got := s.drainRejects.Load(); got != 1 {
		t.Fatalf("drain_rejects = %d, want 1", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v (in-flight work did not finish)", err)
	}
	if st := <-inflightDone; st != http.StatusOK {
		t.Fatalf("in-flight request finished %d, want 200 despite drain", st)
	}
}
