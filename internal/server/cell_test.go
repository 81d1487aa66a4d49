package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ristretto/internal/cellcache"
	"ristretto/internal/experiments"
	"ristretto/internal/faultinject"
	"ristretto/internal/telemetry"
	"ristretto/internal/workload"
)

// TestCellEndpointMatchesLocalRun is the wire half of the distributed
// determinism guarantee: the payload a worker answers for a cell must be
// byte-identical to what a local checkpointed run computes for the same
// workload configuration.
func TestCellEndpointMatchesLocalRun(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, cell := range []string{"table4", "figure1"} {
		resp, b := post(t, ts, "/v1/cell",
			`{"seed":3,"scale":32,"nets":["AlexNet"],"cell":"`+cell+`"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cell %q = %d: %s", cell, resp.StatusCode, b)
		}
		var cr CellResponse
		if err := json.Unmarshal(b, &cr); err != nil {
			t.Fatalf("bad response JSON: %v", err)
		}
		bench := experiments.NewQuickBench(3, 32)
		bench.Nets = []string{"AlexNet"}
		want, err := bench.RunCellChecked(cell, experiments.RunOptions{})
		if err != nil {
			t.Fatalf("local run of %q: %v", cell, err)
		}
		if !bytes.Equal(cr.Payload, want) {
			t.Errorf("cell %q payload differs from local run:\nremote %s\nlocal  %s", cell, cr.Payload, want)
		}
		if cr.Fingerprint != bench.CellSpec(cell).Fingerprint() {
			t.Errorf("cell %q fingerprint %q does not match the local spec", cell, cr.Fingerprint)
		}
		if want := experiments.CellPayloadDigest(cr.Fingerprint, cr.Payload); cr.PayloadSHA256 != want {
			t.Errorf("cell %q payload_sha256 %q does not verify (want %q)", cell, cr.PayloadSHA256, want)
		}
		if rs, err := experiments.DecodeCellPayload(cr.Payload); err != nil || len(rs) == 0 {
			t.Errorf("cell %q payload undecodable: %v", cell, err)
		}
	}
}

func TestCellEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for name, body := range map[string]string{
		"unknown-cell": `{"cell":"figure99"}`,
		"missing-cell": `{"seed":1}`,
		"unknown-net":  `{"cell":"table4","nets":["NoSuchNet"]}`,
		"bad-scale":    `{"cell":"table4","scale":-4}`,
	} {
		resp, b := post(t, ts, "/v1/cell", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, b)
		}
	}
}

// TestCellEndpointCachesByFingerprint: with a cell cache configured, the
// second identical request is served from disk, byte-identical, flagged
// cached.
func TestCellEndpointCachesByFingerprint(t *testing.T) {
	var cache *cellcache.Cache
	_, ts := newTestServer(t, func(c *Config) {
		var err error
		cache, err = cellcache.Open(filepath.Join(t.TempDir(), "cells"), c.Registry)
		if err != nil {
			t.Fatal(err)
		}
		c.CellCache = cache
	})
	body := `{"seed":5,"scale":32,"nets":["AlexNet"],"cell":"figure1"}`
	var responses [2]CellResponse
	for i := range responses {
		resp, b := post(t, ts, "/v1/cell", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d = %d: %s", i, resp.StatusCode, b)
		}
		if err := json.Unmarshal(b, &responses[i]); err != nil {
			t.Fatal(err)
		}
	}
	if responses[0].Cached {
		t.Error("first request claims a cache hit")
	}
	if !responses[1].Cached {
		t.Error("second identical request did not hit the cell cache")
	}
	if !bytes.Equal(responses[0].Payload, responses[1].Payload) {
		t.Error("cached payload differs from computed payload")
	}
	if n, err := cache.Len(); err != nil || n != 1 {
		t.Errorf("cache holds %d entries (err %v), want 1", n, err)
	}
}

// TestCellEndpointPanicCarriesReplaySeed pins the wire contract behind
// remote failure replay (and the fleet's satellite regression): an
// injected panic answers 500 with a cell_error whose seed is exactly the
// seed a local AllChecked run would derive for that cell — so the remote
// failure reproduces locally from the response alone.
func TestCellEndpointPanicCarriesReplaySeed(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		spec, err := faultinject.ParseSpec("seed=7,panic=1")
		if err != nil {
			t.Fatal(err)
		}
		c.Fault = faultinject.New(spec)
	})
	resp, b := post(t, ts, "/v1/cell", `{"seed":9,"scale":32,"nets":["AlexNet"],"cell":"figure12"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d (%s), want 500", resp.StatusCode, b)
	}
	var aerr struct {
		Msg       string          `json:"error"`
		CellError json.RawMessage `json:"cell_error"`
	}
	if err := json.Unmarshal(b, &aerr); err != nil {
		t.Fatal(err)
	}
	if aerr.CellError == nil {
		t.Fatalf("no cell_error in failure body: %s", b)
	}
	var ce struct {
		Key      string `json:"key"`
		Seed     int64  `json:"seed"`
		Panicked bool   `json:"panicked"`
	}
	if err := json.Unmarshal(aerr.CellError, &ce); err != nil {
		t.Fatal(err)
	}
	if !ce.Panicked {
		t.Error("cell_error not classified as a panic")
	}
	if ce.Key != "figure12" {
		t.Errorf("cell_error key %q, want figure12", ce.Key)
	}
	if want := workload.DeriveSeed(9, "job", "figure12"); ce.Seed != want {
		t.Errorf("replay seed %d, want the AllChecked derivation %d", ce.Seed, want)
	}
}

// TestCellLeaderEnvelope is TestMemoLeaderEnvelope for /v1/cell on a
// daemon with a cell cache: a request that joins another's fill takes none
// of the leader's envelope. A patient joiner of a leader that times out or
// hangs up makes its own attempt and answers 200 with no cell_error, and
// a joiner with a short deadline answers 504 at that deadline instead of
// waiting out the fill. Every joiner counts in fleet.cache.inflight_dedup.
func TestCellLeaderEnvelope(t *testing.T) {
	const fields = `"seed":4,"scale":32,"nets":["AlexNet"],"cell":"table4"`
	for _, tc := range []struct {
		name                 string
		delay                time.Duration // injected into every compute
		leaderMS, joinerMS   int64         // leaderMS 0: the leader's client hangs up at 50 ms
		wantLeader, wantJoin int           // -1: the client gave up
		within               time.Duration // the joiner's answer bound; 0: none
	}{
		{"leader times out", 300 * time.Millisecond, 50, 5000, http.StatusGatewayTimeout, http.StatusOK, 0},
		{"leader hangs up", 300 * time.Millisecond, 0, 5000, -1, http.StatusOK, 0},
		{"joiner times out", 600 * time.Millisecond, 5000, 50, http.StatusOK, http.StatusGatewayTimeout, 250 * time.Millisecond},
	} {
		var reg *telemetry.Registry
		_, ts := newTestServer(t, func(c *Config) {
			reg = c.Registry
			c.Fault = faultinject.New(faultinject.Spec{Seed: 1, DelayProb: 1, Delay: tc.delay})
			cache, err := cellcache.Open(filepath.Join(t.TempDir(), "cells"), c.Registry)
			if err != nil {
				t.Fatal(err)
			}
			c.CellCache = cache
		})
		ctx := context.Background()
		leaderBody := fmt.Sprintf(`{%s,"deadline_ms":%d}`, fields, tc.leaderMS)
		if tc.leaderMS == 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, 50*time.Millisecond)
			defer cancel()
			leaderBody = `{` + fields + `}`
		}
		leader := make(chan int, 1)
		go func() {
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/cell", strings.NewReader(leaderBody))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				leader <- -1 // the client gave up
				return
			}
			resp.Body.Close()
			leader <- resp.StatusCode
		}()
		awaitCounter(t, reg, "fleet.cache.misses", 1)
		start := time.Now()
		resp, b := post(t, ts, "/v1/cell", fmt.Sprintf(`{%s,"deadline_ms":%d}`, fields, tc.joinerMS))
		elapsed := time.Since(start)
		lo := <-leader
		if resp.StatusCode != tc.wantJoin || (tc.within > 0 && elapsed > tc.within) {
			t.Errorf("%s: joiner = %d after %v (%s), want %d", tc.name, resp.StatusCode, elapsed, b, tc.wantJoin)
		}
		if bytes.Contains(b, []byte(`"cell_error"`)) {
			t.Errorf("%s: joiner's answer carries the leader's cell_error: %s", tc.name, b)
		}
		if dedup := reg.Snapshot().Counters["fleet.cache.inflight_dedup"]; dedup < 1 {
			t.Errorf("%s: the joiner never joined the leader's fill", tc.name)
		}
		if lo != tc.wantLeader {
			t.Errorf("%s: leader got %d, want %d", tc.name, lo, tc.wantLeader)
		}
	}
}
