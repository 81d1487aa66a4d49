package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"time"

	"ristretto/internal/server"
	"ristretto/internal/telemetry"
)

// serverSys is one in-process ristretto-serve daemon on a loopback port,
// built exactly as cmd/ristretto-serve builds it.
type serverSys struct {
	reg  *telemetry.Registry
	hs   *http.Server
	done chan struct{}
	url  string
}

// startServer boots a daemon and returns once /healthz has answered 200:
// the first operation it accepts.
func startServer(cfg server.Config) (*serverSys, error) {
	cfg.Registry = telemetry.NewRegistry()
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serverSys{reg: cfg.Registry, hs: &http.Server{Handler: srv.Handler()}, done: make(chan struct{}),
		url: "http://" + ln.Addr().String()}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	c := newClient()
	defer c.hc.CloseIdleConnections()
	resp, err := c.hc.Get(s.url + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Close shuts the daemon down and waits for its serve loop to return.
func (s *serverSys) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	return err
}

// client is one closed-loop HTTP client.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
}

// post sends one JSON body and returns the status, the body and the
// client-side latency.
func (c *client) post(url string, body []byte) (int, []byte, time.Duration, error) {
	start := time.Now()
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, time.Since(start), err
}

// volatile are the response fields that describe how an answer was served
// rather than the answer itself; output checks strip them.
var volatile = []string{"elapsed_ms", "cached", "batched"}

// canonical strips the volatile fields from a JSON response and re-encodes
// it with sorted keys. It also returns the server-side elapsed_ms and the
// served-from-cache and batched flags.
func canonical(body []byte) (canon []byte, elapsedMS float64, cached, batched bool, err error) {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, 0, false, false, err
	}
	elapsedMS, _ = m["elapsed_ms"].(float64)
	cached, _ = m["cached"].(bool)
	batched, _ = m["batched"].(bool)
	for _, k := range volatile {
		delete(m, k)
	}
	canon, err = json.Marshal(m)
	return canon, elapsedMS, cached, batched, err
}

// outputSet collects canonical payloads by request key and reduces them to
// one byte string in key order, whatever order the requests ran in.
type outputSet map[string][]byte

func (o outputSet) bytes() []byte {
	keys := make([]string, 0, len(o))
	for k := range o {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('\t')
		b.Write(o[k])
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// outputPayloads turns an output set into storage-replay payloads, each
// addressed by the SHA-256 of its request key.
func outputPayloads(o outputSet) []payload {
	items := make([]payload, 0, len(o))
	for k, v := range o {
		sum := sha256.Sum256([]byte(k))
		items = append(items, payload{fp: hex.EncodeToString(sum[:]), data: v})
	}
	return items
}

// serverLayer fills the server.* per-layer metrics from the daemon's own
// registry and the per-response numbers the benchmark collected: the
// server-side elapsed_ms of each response and its client-side latency.
func (r *run) serverLayer(reg *telemetry.Registry, serverMS, clientMS []float64, batched, answers int) {
	qw := reg.Histogram("server.queue_wait_ns")
	r.setLayer("server.queue_wait_p50_ms", qw.Quantile(0.50)/1e6)
	r.setLayer("server.queue_wait_p99_ms", qw.Quantile(0.99)/1e6)
	r.setLayer("server.handler_p50_ms", median(serverMS))
	over := make([]float64, len(serverMS))
	for i := range serverMS {
		over[i] = clientMS[i] - serverMS[i]
	}
	r.setLayer("server.transport_overhead_ms", median(over))
	hits := reg.Counter("server.cache.hits").Load()
	if lookups := hits + reg.Counter("server.cache.misses").Load(); lookups > 0 {
		r.setLayer("server.memo_hit_ratio", float64(hits)/float64(lookups))
	}
	if answers > 0 {
		r.setLayer("server.batched_ratio", float64(batched)/float64(answers))
	}
	r.setDetail("server_metrics", reg.Snapshot())
}

// probeServer is the setup of the serving workloads: one daemon with the
// defaults cmd/ristretto-serve uses on this machine.
func probeServer(r *run) (func() error, error) {
	s, err := startServer(server.Config{})
	if err != nil {
		return nil, err
	}
	return s.Close, nil
}
