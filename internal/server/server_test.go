package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ristretto/internal/accel"
	"ristretto/internal/conformance"
	"ristretto/internal/faultinject"
	"ristretto/internal/telemetry"
)

// newTestServer builds an isolated server (private registry) and an
// httptest frontend. mutate adjusts the config before construction.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Registry: telemetry.NewRegistry(), DefaultScale: 32}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s response: %v", path, err)
	}
	return resp, b
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s response: %v", path, err)
	}
	return resp, b
}

func TestHealthEndpoints(t *testing.T) {
	_, ts := newTestServer(t, nil)
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", resp.StatusCode)
	}
}

func TestModelEndpointDeterministic(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body := `{"net":"AlexNet","precision":"8b","scale":32,"seed":3}`
	var cycles [2]int64
	for i := range cycles {
		resp, b := post(t, ts, "/v1/model", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("model request = %d: %s", resp.StatusCode, b)
		}
		var mr ModelResponse
		if err := json.Unmarshal(b, &mr); err != nil {
			t.Fatalf("bad response JSON: %v", err)
		}
		if mr.Cycles <= 0 || mr.Degraded || mr.Engine != "analytic" {
			t.Fatalf("implausible model response: %+v", mr)
		}
		cycles[i] = mr.Cycles
	}
	if cycles[0] != cycles[1] {
		t.Fatalf("same request, different cycles: %d vs %d", cycles[0], cycles[1])
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// TestModelEndpointGolden sends one /v1/model request per accelerator
// through server.New and pins each response body (elapsed time zeroed)
// against testdata/model_endpoint.golden. Run with -update-golden after an
// intentional change.
func TestModelEndpointGolden(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var sb strings.Builder
	for _, name := range accel.Names() {
		body := fmt.Sprintf(`{"net":"AlexNet","precision":"mix2/4","scale":32,"accel":%q}`, name)
		resp, b := post(t, ts, "/v1/model", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s request = %d: %s", name, resp.StatusCode, b)
		}
		var mr ModelResponse
		if err := json.Unmarshal(b, &mr); err != nil || mr.Cycles <= 0 {
			t.Fatalf("%s: implausible response %s (err %v)", name, b, err)
		}
		mr.ElapsedMS = 0
		line, _ := json.Marshal(mr)
		sb.Write(line)
		sb.WriteByte('\n')
	}
	got := sb.String()
	path := filepath.Join("testdata", "model_endpoint.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if string(want) != got {
		t.Fatalf("/v1/model responses drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestSimEndpointDeterministic(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body := `{"net":"ResNet-18","layer":"conv3_2","precision":"4b","scale":32,"seed":5}`
	var cycles [2]int64
	for i := range cycles {
		resp, b := post(t, ts, "/v1/sim", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sim request = %d: %s", resp.StatusCode, b)
		}
		var sr SimResponse
		if err := json.Unmarshal(b, &sr); err != nil {
			t.Fatalf("bad response JSON: %v", err)
		}
		if sr.Cycles <= 0 || sr.Engine != "core-sim" || sr.Degraded {
			t.Fatalf("implausible sim response: %s", b)
		}
		if sr.Utilization <= 0 || sr.Utilization > 1 {
			t.Fatalf("utilization %v out of (0,1]", sr.Utilization)
		}
		cycles[i] = sr.Cycles
	}
	if cycles[0] != cycles[1] {
		t.Fatalf("same sim request, different cycles: %d vs %d", cycles[0], cycles[1])
	}
}

func TestQuantEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, b := post(t, ts, "/v1/quant", `{"bits":[8,2],"n":20000,"seed":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quant request = %d: %s", resp.StatusCode, b)
	}
	var qr QuantResponse
	if err := json.Unmarshal(b, &qr); err != nil {
		t.Fatalf("bad response JSON: %v", err)
	}
	if len(qr.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(qr.Rows))
	}
	for _, row := range qr.Rows {
		if row.Weights.ValueDensity <= 0 || row.Weights.ValueDensity > 1 {
			t.Fatalf("bits %d: weight value density %v out of (0,1]", row.Bits, row.Weights.ValueDensity)
		}
		if row.Acts.StreamAtoms <= 0 || row.Acts.DenseAtoms <= 0 {
			t.Fatalf("bits %d: empty act stream: %+v", row.Bits, row.Acts)
		}
	}
	// Narrower quantization must not lengthen the dense stream.
	if qr.Rows[1].Weights.DenseAtoms > qr.Rows[0].Weights.DenseAtoms {
		t.Fatalf("2b dense stream (%d) longer than 8b (%d)", qr.Rows[1].Weights.DenseAtoms, qr.Rows[0].Weights.DenseAtoms)
	}
}

func TestConformanceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, b := post(t, ts, "/v1/conformance", `{"engine":"csc","cases":3,"seed":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("conformance request = %d: %s", resp.StatusCode, b)
	}
	var cr ConformanceResponse
	if err := json.Unmarshal(b, &cr); err != nil {
		t.Fatalf("bad response JSON: %v", err)
	}
	if !cr.OK || len(cr.Reports) != 1 || cr.Reports[0].Failures != 0 {
		t.Fatalf("csc spot-check failed: %s", b)
	}

	resp, b = post(t, ts, "/v1/conformance", `{"engine":"all","cases":1,"seed":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("all-engines request = %d: %s", resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &cr); err != nil {
		t.Fatalf("bad response JSON: %v", err)
	}
	if len(cr.Reports) != len(conformance.Names()) {
		t.Fatalf("all-engines sweep covered %d engines, registry has %d", len(cr.Reports), len(conformance.Names()))
	}
}

// TestValidation pins the strict-input contract across endpoints.
func TestValidation(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name, path, body string
		wantStatus       int
		wantMsg          string
	}{
		{"unknown field", "/v1/model", `{"bogus":1}`, 400, "unknown field"},
		{"unknown net", "/v1/model", `{"net":"LeNet-5"}`, 400, "unknown network"},
		{"bad precision", "/v1/model", `{"precision":"16b"}`, 400, "precision"},
		{"bad accel", "/v1/model", `{"accel":"tpu"}`, 400, "accel"},
		{"bad gran", "/v1/sim", `{"gran":7}`, 400, "gran"},
		{"mixed precision sim", "/v1/sim", `{"precision":"mix2/4"}`, 400, "precision"},
		{"unknown layer", "/v1/sim", `{"net":"AlexNet","layer":"conv9_9"}`, 400, "no layer"},
		{"zero cases", "/v1/conformance", `{"cases":-1}`, 400, "cases"},
		{"unknown engine", "/v1/conformance", `{"engine":"fpga"}`, 400, "unknown engine"},
		{"quant bits", "/v1/quant", `{"bits":[64]}`, 400, "bits"},
		{"quant n", "/v1/quant", `{"n":-5}`, 400, "invalid n"},
		{"trailing data", "/v1/model", `{} {}`, 400, "trailing"},
		{"not json", "/v1/model", `hello`, 400, "bad request body"},
	}
	for _, c := range cases {
		resp, b := post(t, ts, c.path, c.body)
		if resp.StatusCode != c.wantStatus || !bytes.Contains(b, []byte(c.wantMsg)) {
			t.Errorf("%s: got %d %s, want %d containing %q", c.name, resp.StatusCode, b, c.wantStatus, c.wantMsg)
		}
	}
}

// TestSimOperandCap pins the per-request workload bound: a layer whose
// operand volume exceeds MaxSimValues is refused before touching a slot.
func TestSimOperandCap(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxSimValues = 1000 })
	resp, b := post(t, ts, "/v1/sim", `{"net":"VGG-16","layer":"conv1_1","scale":1}`)
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(b, []byte("cap")) {
		t.Fatalf("oversized sim = %d %s, want 400 mentioning the cap", resp.StatusCode, b)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, _ := get(t, ts, "/v1/model")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/model = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Fatalf("Allow header %q, want POST", allow)
	}
}

func TestBodySizeLimit(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 256 })
	big := `{"net":"` + strings.Repeat("x", 1024) + `"}`
	resp, b := post(t, ts, "/v1/model", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d (%s), want 413", resp.StatusCode, b)
	}
}

// TestDeadline proves client deadlines are enforced: a 40ms injected delay
// against a 10ms deadline must answer 504 and bump the timeout counter —
// without killing the worker slot for later requests.
func TestDeadline(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Fault = faultinject.New(faultinject.Spec{Seed: 1, DelayProb: 1, Delay: 40 * time.Millisecond})
	})
	resp, b := post(t, ts, "/v1/model", `{"net":"AlexNet","scale":32,"deadline_ms":10}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline request = %d (%s), want 504", resp.StatusCode, b)
	}
	if got := s.timeouts.Load(); got != 1 {
		t.Fatalf("timeout counter = %d, want 1", got)
	}
	// The slot must have been released: a generous-deadline request works.
	resp, b = post(t, ts, "/v1/model", `{"net":"AlexNet","scale":32,"deadline_ms":5000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up request = %d (%s), want 200", resp.StatusCode, b)
	}
}

// TestMetricsEndpoint checks the scrape contract the CI serve job relies
// on: per-endpoint counters, latency histograms with quantiles, gauges.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	if resp, b := post(t, ts, "/v1/model", `{"net":"AlexNet","scale":32}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("model request = %d: %s", resp.StatusCode, b)
	}
	resp, b := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	var m MetricsResponse
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("bad metrics JSON: %v", err)
	}
	if m.Draining || m.BreakerOpen {
		t.Fatalf("fresh server reports draining=%v breakerOpen=%v", m.Draining, m.BreakerOpen)
	}
	c := m.Snapshot.Counters
	if c["server.model.requests"] != 1 || c["server.model.ok"] != 1 || c["server.model.errors"] != 0 {
		t.Fatalf("model counters wrong: %v", c)
	}
	h, ok := m.Snapshot.Histograms["server.model.latency_ns"]
	if !ok || h.Count != 1 || h.P50 <= 0 || h.P99 < h.P50 {
		t.Fatalf("latency histogram wrong: %+v (ok=%v)", h, ok)
	}
	if _, ok := m.Snapshot.Histograms["server.queue_depth"]; !ok {
		t.Fatal("queue-depth gauge histogram missing")
	}
}
