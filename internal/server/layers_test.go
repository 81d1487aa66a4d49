package server

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"ristretto/internal/telemetry"
)

// simBody is a /v1/sim request body with fields replaced by the
// name-value pairs of over: the base is AlexNet conv3 at 4 bits and scale
// 32 on 4 tiles × 16 multipliers, w/a balancing, with a 30 s deadline.
func simBody(over ...string) string {
	fields := []string{`"net":"AlexNet"`, `"layer":"conv3"`, `"precision":"4b"`, `"seed":3`, `"scale":32`,
		`"tiles":4`, `"mults":16`, `"gran":2`, `"balance":"wa"`, `"tile_w":0`, `"tile_h":0`, `"deadline_ms":30000`}
	for i := 0; i+1 < len(over); i += 2 {
		for j, f := range fields {
			if strings.HasPrefix(f, `"`+over[i]+`":`) {
				fields[j] = `"` + over[i] + `":` + over[i+1]
			}
		}
	}
	return "{" + strings.Join(fields, ",") + "}"
}

// TestSimLayerStore: /v1/sim requests that differ only in tiles or balance
// share one per-channel pass, a request that differs in any field the pass
// reads runs its own, and every answer matches the one a daemon without the
// store computes.
func TestSimLayerStore(t *testing.T) {
	var reg *telemetry.Registry
	_, ts := newTestServer(t, func(c *Config) { reg = c.Registry })
	_, bypass := newTestServer(t, func(c *Config) { c.CacheEntries = -1 })
	counts := func() (misses, hits int64) {
		snap := reg.Snapshot()
		return snap.Counters["server.layers.misses"], snap.Counters["server.layers.hits"]
	}
	ask := func(body string) {
		t.Helper()
		resp, got := post(t, ts, "/v1/sim", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d: %s", body, resp.StatusCode, got)
		}
		resp, want := post(t, bypass, "/v1/sim", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s without the store = %d: %s", body, resp.StatusCode, want)
		}
		if g, w := stripVolatile(t, got), stripVolatile(t, want); !bytes.Equal(g, w) {
			t.Fatalf("%s:\nwith the store    %s\nwithout the store %s", body, g, w)
		}
	}

	shapes := []string{simBody(), simBody("tiles", "8"), simBody("balance", `"none"`),
		simBody("tiles", "1", "balance", `"w"`), simBody("tiles", "5", "deadline_ms", "60000")}
	for _, body := range shapes {
		ask(body)
	}
	if misses, hits := counts(); misses != 1 || hits != int64(len(shapes)-1) {
		t.Fatalf("%d shapes of one layer: %d misses, %d hits; want 1 and %d", len(shapes), misses, hits, len(shapes)-1)
	}
	if got := reg.Snapshot().Gauges["server.layers.bytes"]; got <= 0 {
		t.Fatalf("server.layers.bytes = %d, want the stored layer's size", got)
	}

	for _, over := range [][]string{
		{"net", `"VGG-16"`, "layer", `"conv4_1"`}, {"layer", `"conv4"`}, {"precision", `"8b"`},
		{"seed", "4"}, {"scale", "64"}, {"mults", "8"}, {"gran", "1"}, {"tile_w", "5"}, {"tile_h", "5"},
	} {
		before, _ := counts()
		ask(simBody(over...))
		if after, _ := counts(); after != before+1 {
			t.Fatalf("a request differing in %s: layer-store misses %d -> %d, want one more", over[0], before, after)
		}
	}
}

// TestSimLayerStoreDisabled: with memoization off (CacheEntries < 0) /v1/sim
// bypasses the layer store, so nothing is stored or counted.
func TestSimLayerStoreDisabled(t *testing.T) {
	var reg *telemetry.Registry
	s, ts := newTestServer(t, func(c *Config) {
		c.CacheEntries = -1
		reg = c.Registry
	})
	if s.layers != nil {
		t.Fatal("layer store built despite CacheEntries < 0")
	}
	for _, body := range []string{simBody(), simBody("tiles", "8")} {
		if resp, b := post(t, ts, "/v1/sim", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d: %s", body, resp.StatusCode, b)
		}
	}
	snap := reg.Snapshot()
	for _, name := range []string{"server.layers.misses", "server.layers.hits"} {
		if n := snap.Counters[name]; n != 0 {
			t.Fatalf("%s = %d with the store disabled", name, n)
		}
	}
}
