package cellcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ristretto/internal/telemetry"
)

func newCache(t *testing.T) (*Cache, *telemetry.Registry) {
	t.Helper()
	r := telemetry.NewRegistry()
	r.SetEnabled(true)
	c, err := Open(filepath.Join(t.TempDir(), "cells"), r)
	if err != nil {
		t.Fatal(err)
	}
	return c, r
}

const fpA = "aabbccddeeff00112233445566778899aabbccddeeff00112233445566778899"

// TestHitReturnsIdenticalBytes is the core cache-correctness property: a
// hit must return exactly the bytes that were computed, including payloads
// with embedded newlines and binary-ish content (the entry framing must
// not corrupt them).
func TestHitReturnsIdenticalBytes(t *testing.T) {
	c, r := newCache(t)
	payload := []byte("line1\nline2\n\x00\xff binary tail\n")
	if err := c.Put(fpA, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(fpA)
	if !ok {
		t.Fatal("fresh entry missed")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("hit bytes differ:\n got %q\nwant %q", got, payload)
	}
	// And through the singleflight path: the hit must not run compute.
	v, hit, err := c.Do(context.Background(), fpA, func() ([]byte, error) {
		t.Fatal("compute ran despite a cached entry")
		return nil, nil
	}, nil)
	if err != nil || !hit || !bytes.Equal(v, payload) {
		t.Fatalf("Do hit = (%q, %v, %v)", v, hit, err)
	}
	if snap := r.Snapshot(); snap.Counters["fleet.cache.hits"] < 2 {
		t.Fatalf("hit counter = %d, want >= 2", snap.Counters["fleet.cache.hits"])
	}
}

// TestCorruptEntryRecomputedNotServed flips a payload byte on disk: the
// CRC must reject the entry, Get must miss (and delete the bad file), and
// the next Do must recompute and repair the cache.
func TestCorruptEntryRecomputedNotServed(t *testing.T) {
	c, r := newCache(t)
	payload := []byte("pristine payload bytes")
	if err := c.Put(fpA, payload); err != nil {
		t.Fatal(err)
	}
	p := c.path(fpA)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if v, ok := c.Get(fpA); ok {
		t.Fatalf("corrupt entry served: %q", v)
	}
	if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("corrupt entry not deleted")
	}
	var computed atomic.Int64
	v, hit, err := c.Do(context.Background(), fpA, func() ([]byte, error) {
		computed.Add(1)
		return payload, nil
	}, nil)
	if err != nil || hit || !bytes.Equal(v, payload) || computed.Load() != 1 {
		t.Fatalf("recompute path = (%q, hit=%v, err=%v, computed=%d)", v, hit, err, computed.Load())
	}
	if got, ok := c.Get(fpA); !ok || !bytes.Equal(got, payload) {
		t.Fatal("cache not repaired after recompute")
	}
	if snap := r.Snapshot(); snap.Counters["fleet.cache.corrupt"] != 1 {
		t.Fatalf("corrupt counter = %d, want 1", snap.Counters["fleet.cache.corrupt"])
	}
}

// TestCorruptHeaderRejected covers the other framing failures: truncated
// header, wrong or stale schema, missing newline, missing digest.
func TestCorruptHeaderRejected(t *testing.T) {
	c, _ := newCache(t)
	for name, data := range map[string][]byte{
		"empty":          {},
		"no-newline":     []byte("ristretto.cell-cache/v2 00000000"),
		"wrong-schema":   []byte("ristretto.other/v9 00000000 digest\npayload"),
		"stale-v1":       []byte("ristretto.cell-cache/v1 00000000\npayload"),
		"bad-crc-hex":    []byte("ristretto.cell-cache/v2 zzzzzzzz digest\npayload"),
		"missing-digest": []byte("ristretto.cell-cache/v2 00000000\npayload"),
	} {
		p := c.path(fpA)
		os.MkdirAll(filepath.Dir(p), 0o755)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(fpA); ok {
			t.Errorf("%s: invalid entry served", name)
		}
	}
}

// TestDigestMismatchDeletedAndRecomputed is the end-to-end integrity
// property the CRC alone cannot give: an entry whose bytes are perfectly
// intact (schema, CRC and digest all self-consistent) but which belongs to
// a DIFFERENT fingerprint — a renamed file, or a confused writer — must
// never be served under this address. The digest binds payload to
// fingerprint, so the copied entry is deleted as corrupt and the next Do
// recomputes.
func TestDigestMismatchDeletedAndRecomputed(t *testing.T) {
	c, r := newCache(t)
	const fpB = "bbbbccddeeff00112233445566778899aabbccddeeff00112233445566778899"
	payload := []byte("payload computed for cell A")
	if err := c.Put(fpA, payload); err != nil {
		t.Fatal(err)
	}
	// Replay A's (internally consistent) entry under B's address.
	data, err := os.ReadFile(c.path(fpA))
	if err != nil {
		t.Fatal(err)
	}
	pB := c.path(fpB)
	os.MkdirAll(filepath.Dir(pB), 0o755)
	if err := os.WriteFile(pB, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if v, ok := c.Get(fpB); ok {
		t.Fatalf("cross-fingerprint entry served: %q", v)
	}
	if _, err := os.Stat(pB); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("digest-mismatched entry not deleted")
	}
	want := []byte("payload computed for cell B")
	v, hit, err := c.Do(context.Background(), fpB, func() ([]byte, error) { return want, nil }, nil)
	if err != nil || hit || !bytes.Equal(v, want) {
		t.Fatalf("recompute after digest mismatch = (%q, hit=%v, err=%v)", v, hit, err)
	}
	// The original entry is untouched and still serves A.
	if v, ok := c.Get(fpA); !ok || !bytes.Equal(v, payload) {
		t.Fatalf("original entry damaged: (%q, %v)", v, ok)
	}
	if snap := r.Snapshot(); snap.Counters["fleet.cache.corrupt"] != 1 {
		t.Fatalf("corrupt counter = %d, want 1", snap.Counters["fleet.cache.corrupt"])
	}
}

// TestConcurrentSameCellSingleflight mirrors the serving memo cache's
// contract: N concurrent requests for one fingerprint run exactly one
// computation, and every caller gets the identical bytes.
func TestConcurrentSameCellSingleflight(t *testing.T) {
	c, r := newCache(t)
	const callers = 16
	var computed atomic.Int64
	gate := make(chan struct{})
	payload := []byte("expensive result")

	var wg sync.WaitGroup
	results := make([][]byte, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), fpA, func() ([]byte, error) {
				computed.Add(1)
				<-gate // hold the flight open so everyone piles in
				return payload, nil
			}, nil)
			results[i], errs[i] = v, err
		}(i)
	}
	// Let the leader enter compute and the rest join the flight, then open
	// the gate. (Sleep-free would need hooks; 10ms of pile-up is plenty and
	// the assertion — computed == 1 — is unaffected by scheduling.)
	for computed.Load() == 0 {
	}
	close(gate)
	wg.Wait()

	if n := computed.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	for i := range results {
		if errs[i] != nil || !bytes.Equal(results[i], payload) {
			t.Fatalf("caller %d got (%q, %v)", i, results[i], errs[i])
		}
	}
	if snap := r.Snapshot(); snap.Counters["fleet.cache.inflight_dedup"] == 0 {
		t.Error("no inflight dedups recorded; the flight never shared")
	}
}

// TestErrorsNeverCached: a failed compute reaches every waiter but leaves
// no entry, so the next request recomputes (and can succeed).
func TestErrorsNeverCached(t *testing.T) {
	c, _ := newCache(t)
	boom := errors.New("compute failed")
	if _, _, err := c.Do(context.Background(), fpA, func() ([]byte, error) { return nil, boom }, nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, ok := c.Get(fpA); ok {
		t.Fatal("failed compute left a cache entry")
	}
	v, hit, err := c.Do(context.Background(), fpA, func() ([]byte, error) { return []byte("ok now"), nil }, nil)
	if err != nil || hit || string(v) != "ok now" {
		t.Fatalf("retry after failure = (%q, %v, %v)", v, hit, err)
	}
}

// TestPanickingComputeDoesNotWedge: a compute that panics must release its
// fingerprint. A caller waiting on that fill panics with the same value
// (or, arriving after it, computes and panics alike), and the next Do
// computes again and caches. A fingerprint wedged by a dead fill would
// block forever, so the whole sequence runs under a deadline.
func TestPanickingComputeDoesNotWedge(t *testing.T) {
	c, _ := newCache(t)
	const boom = "compute exploded"
	explode := func() ([]byte, error) { panic(boom) }
	recovered := func(do func()) (v any) {
		defer func() { v = recover() }()
		do()
		return nil
	}

	done := make(chan error, 1)
	go func() {
		entered, release := make(chan struct{}), make(chan struct{})
		leader := make(chan any, 1)
		go func() {
			leader <- recovered(func() {
				c.Do(context.Background(), fpA, func() ([]byte, error) {
					close(entered)
					<-release
					return explode()
				}, nil)
			})
		}()
		<-entered
		waiter := make(chan any, 1)
		go func() { waiter <- recovered(func() { c.Do(context.Background(), fpA, explode, nil) }) }()
		close(release)
		for name, ch := range map[string]chan any{"leader": leader, "waiter": waiter} {
			if v := <-ch; v != boom {
				done <- fmt.Errorf("%s recovered %v, want %q", name, v, boom)
				return
			}
		}
		v, hit, err := c.Do(context.Background(), fpA, func() ([]byte, error) { return []byte("recomputed"), nil }, nil)
		if err != nil || hit || string(v) != "recomputed" {
			done <- fmt.Errorf("Do after the panic = (%q, %v, %v), want a fresh compute", v, hit, err)
			return
		}
		if v, ok := c.Get(fpA); !ok || string(v) != "recomputed" {
			done <- fmt.Errorf("recomputed payload not cached: (%q, %v)", v, ok)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fingerprint wedged: a Do after a panicking compute never returned")
	}
}

// TestDistinctFingerprintsIndependent: entries do not interfere, and Len
// counts them.
func TestDistinctFingerprintsIndependent(t *testing.T) {
	c, _ := newCache(t)
	for i := 0; i < 5; i++ {
		fp := fmt.Sprintf("%064x", i+1)
		if err := c.Put(fp, []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := c.Len(); err != nil || n != 5 {
		t.Fatalf("Len = %d, want 5", n)
	}
	for i := 0; i < 5; i++ {
		fp := fmt.Sprintf("%064x", i+1)
		v, ok := c.Get(fp)
		if !ok || string(v) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("entry %d = (%q, %v)", i, v, ok)
		}
	}
}

// TestOpenValidation: an empty directory is rejected, a nested missing one
// is created.
func TestOpenValidation(t *testing.T) {
	if _, err := Open("", nil); err == nil {
		t.Fatal("empty dir accepted")
	}
	dir := filepath.Join(t.TempDir(), "a", "b", "cells")
	c, err := Open(dir, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if c.Dir() != dir {
		t.Fatalf("Dir = %q", c.Dir())
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatal("cache root not created")
	}
}
