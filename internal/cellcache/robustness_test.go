package cellcache

// Disk-robustness coverage: injected read/write faults, the capacity
// bound's deterministic second-chance eviction, read-only degradation
// under a persistently full disk, the scrub pass, and the strict entry
// header framing. The end-to-end story (a faulted fleet sweep staying
// byte-identical to the serial golden) lives in the chaos-disk CI gate.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ristretto/internal/faultinject"
	"ristretto/internal/telemetry"
)

func fpN(i int) string {
	return fmt.Sprintf("%02x%062x", i, i)
}

func openWith(t *testing.T, opts Options) (*Cache, *telemetry.Registry) {
	t.Helper()
	r := telemetry.NewRegistry()
	r.SetEnabled(true)
	c, err := OpenWith(filepath.Join(t.TempDir(), "cells"), r, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, r
}

// TestReadErrorIsAMissNotAServe: a real I/O error on read (not ENOENT)
// counts under fleet.cache.read_errors and degrades to a recompute — Do
// still returns the right payload.
func TestReadErrorIsAMissNotAServe(t *testing.T) {
	fsys := faultinject.NewDiskFS(faultinject.DiskSpec{Seed: 1, EIO: 1}, nil)
	c, r := openWith(t, Options{FS: fsys})
	payload := []byte("payload")
	computes := 0
	v, hit, err := c.Do(context.Background(), fpA, func() ([]byte, error) { computes++; return payload, nil }, nil)
	if err != nil || hit || !bytes.Equal(v, payload) || computes != 1 {
		t.Fatalf("Do under EIO = (%q, %v, %v), computes=%d", v, hit, err, computes)
	}
	// The entry was written (writes are clean in this spec) but every read
	// EIOs: the next Do recomputes again instead of failing.
	v, hit, err = c.Do(context.Background(), fpA, func() ([]byte, error) { computes++; return payload, nil }, nil)
	if err != nil || hit || !bytes.Equal(v, payload) || computes != 2 {
		t.Fatalf("second Do under EIO = (%q, %v, %v), computes=%d", v, hit, err, computes)
	}
	snap := r.Snapshot()
	if snap.Counters["fleet.cache.read_errors"] < 2 {
		t.Fatalf("read_errors = %d, want >= 2", snap.Counters["fleet.cache.read_errors"])
	}
	if snap.Counters["fleet.cache.corrupt"] != 0 {
		t.Fatalf("I/O errors misclassified as corruption: corrupt = %d", snap.Counters["fleet.cache.corrupt"])
	}
}

// TestPlainMissIsNotAReadError: ENOENT is the normal cold-cache case and
// must not count as an I/O error.
func TestPlainMissIsNotAReadError(t *testing.T) {
	c, r := newCache(t)
	if _, ok := c.Get(fpA); ok {
		t.Fatal("empty cache hit")
	}
	snap := r.Snapshot()
	if snap.Counters["fleet.cache.read_errors"] != 0 {
		t.Fatalf("plain miss counted as read error: %d", snap.Counters["fleet.cache.read_errors"])
	}
	if snap.Counters["fleet.cache.misses"] != 1 {
		t.Fatalf("misses = %d, want 1", snap.Counters["fleet.cache.misses"])
	}
}

// TestHeaderTrailingJunkRejected is the decodeEntry framing regression:
// a header with extra fields after the digest must not verify, even when
// CRC and digest themselves are the real ones.
func TestHeaderTrailingJunkRejected(t *testing.T) {
	c, _ := newCache(t)
	payload := []byte("payload bytes")
	if err := c.Put(fpA, payload); err != nil {
		t.Fatal(err)
	}
	p := c.EntryPath(fpA)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(data, '\n')
	junked := append([]byte{}, data[:nl]...)
	junked = append(junked, []byte(" trailing-junk")...)
	junked = append(junked, data[nl:]...)
	if err := os.WriteFile(p, junked, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(fpA); ok {
		t.Fatal("entry with trailing header junk served")
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("junked entry not deleted (stat err %v)", err)
	}
}

// TestDegradedReadOnlyAfterPersistentWriteFailures: WriteFailLimit
// consecutive Put failures flip the cache to read-only — Put returns
// ErrDegraded without disk I/O, Do keeps answering correctly, and
// fleet.cache.degraded records the transition once.
func TestDegradedReadOnlyAfterPersistentWriteFailures(t *testing.T) {
	fsys := faultinject.NewDiskFS(faultinject.DiskSpec{Seed: 1, ENOSPC: 1}, nil)
	c, r := openWith(t, Options{FS: fsys, WriteFailLimit: 3})
	for i := 0; i < 3; i++ {
		if err := c.Put(fpN(i), []byte("payload")); err == nil || errors.Is(err, ErrDegraded) {
			t.Fatalf("Put %d = %v, want a real write error before the limit", i, err)
		}
	}
	if !c.Degraded() {
		t.Fatal("cache not degraded after WriteFailLimit failures")
	}
	if err := c.Put(fpN(9), []byte("payload")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Put on degraded cache = %v, want ErrDegraded", err)
	}
	// The sweep must not notice: Do computes and returns success.
	payload := []byte("computed anyway")
	v, hit, err := c.Do(context.Background(), fpA, func() ([]byte, error) { return payload, nil }, nil)
	if err != nil || hit || !bytes.Equal(v, payload) {
		t.Fatalf("Do on degraded cache = (%q, %v, %v)", v, hit, err)
	}
	snap := r.Snapshot()
	if snap.Counters["fleet.cache.write_errors"] != 3 {
		t.Fatalf("write_errors = %d, want 3", snap.Counters["fleet.cache.write_errors"])
	}
	if snap.Counters["fleet.cache.degraded"] != 1 {
		t.Fatalf("degraded = %d, want 1", snap.Counters["fleet.cache.degraded"])
	}
}

// TestWriteFailureThenRecoverresetsTheFailureStreak: consecutive means
// consecutive — a success in between starts the count over, so a blip
// never degrades the cache.
func TestWriteFailureThenRecoverResetsStreak(t *testing.T) {
	fsys := faultinject.NewDiskFS(faultinject.DiskSpec{Seed: 1, ENOSPC: 0.5}, nil)
	c, _ := openWith(t, Options{FS: fsys, WriteFailLimit: 3})
	// With p=0.5 over many distinct fingerprints, both outcomes occur; as
	// long as no 3 failures run consecutively the cache must stay writable.
	streak := 0
	for i := 0; i < 64 && streak < 3; i++ {
		if err := c.Put(fpN(i), []byte("payload")); err != nil {
			streak++
		} else {
			streak = 0
			if c.Degraded() {
				t.Fatal("cache degraded despite a successful write resetting the streak")
			}
		}
	}
}

// TestSecondChanceEvictionDeterministic: with a byte bound, inserts evict
// in ring order — and a Get between inserts sets the reference bit, buying
// the touched entry a lap while the untouched neighbor goes first.
func TestSecondChanceEvictionDeterministic(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 256)
	entrySize := int64(len(encodeEntry(fpN(0), payload)))
	c, r := openWith(t, Options{MaxBytes: entrySize * 3})
	for i := 0; i < 3; i++ {
		if err := c.Put(fpN(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	// All three fit. Touch entry 1: its ref bit is set again (it already
	// had insert-grace; a second touch is idempotent).
	if _, ok := c.Get(fpN(1)); !ok {
		t.Fatal("entry 1 missing before eviction")
	}
	// Inserting a fourth forces one eviction. Every entry has its bit set
	// (insert grace), so the hand strips 0's bit, 1's, 2's, then comes back
	// to 0 — cleared — and evicts it. Deterministic: always entry 0.
	if err := c.Put(fpN(3), payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(fpN(0)); ok {
		t.Fatal("entry 0 survived; eviction order not deterministic ring order")
	}
	for _, i := range []int{1, 2, 3} {
		if _, ok := c.Get(fpN(i)); !ok {
			t.Fatalf("entry %d evicted, want entry 0 only", i)
		}
	}
	snap := r.Snapshot()
	if snap.Counters["fleet.cache.evicted"] != 1 {
		t.Fatalf("evicted = %d, want 1", snap.Counters["fleet.cache.evicted"])
	}
	// Rerun the same history against a fresh cache: identical survivor set.
	c2, _ := openWith(t, Options{MaxBytes: entrySize * 3})
	for i := 0; i < 3; i++ {
		if err := c2.Put(fpN(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	c2.Get(fpN(1))
	if err := c2.Put(fpN(3), payload); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		_, ok1 := c.Get(fpN(i))
		_, ok2 := c2.Get(fpN(i))
		if ok1 != ok2 {
			t.Fatalf("entry %d: survivor sets diverge between identical histories", i)
		}
	}
}

// TestScrubDeletesCorruptEntries: a scrub pass detects bit rot without
// waiting for a Get, deletes it, and reports honestly.
func TestScrubDeletesCorruptEntries(t *testing.T) {
	c, r := newCache(t)
	good, bad := fpN(1), fpN(2)
	for _, fp := range []string{good, bad} {
		if err := c.Put(fp, []byte("payload for "+fp)); err != nil {
			t.Fatal(err)
		}
	}
	// Rot one payload byte on disk.
	p := c.EntryPath(bad)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x04
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 2 || rep.Corrupt != 1 || rep.ReadErrors != 0 {
		t.Fatalf("scrub report = %+v, want 2 checked / 1 corrupt", rep)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry not deleted (stat err %v)", err)
	}
	if _, ok := c.Get(good); !ok {
		t.Fatal("scrub deleted a valid entry")
	}
	snap := r.Snapshot()
	if snap.Counters["fleet.cache.scrubbed"] != 2 || snap.Counters["fleet.cache.corrupt"] != 1 {
		t.Fatalf("scrubbed=%d corrupt=%d, want 2/1",
			snap.Counters["fleet.cache.scrubbed"], snap.Counters["fleet.cache.corrupt"])
	}
}

// TestScrubOnOpenCatchesBitRot: OpenWith{ScrubOnOpen} deletes rotted
// entries before the first Get can trip over them — the fleet and serve
// binaries open their caches this way.
func TestScrubOnOpenCatchesBitRot(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cells")
	r := telemetry.NewRegistry()
	r.SetEnabled(true)
	c, err := OpenWith(dir, r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(fpA, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	p := c.EntryPath(fpA)
	data, _ := os.ReadFile(p)
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWith(dir, r, Options{ScrubOnOpen: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("scrub-on-open left the rotted entry (stat err %v)", err)
	}
}

// TestLenPropagatesWalkErrors: Len on a missing-permission or vanished
// store surfaces the walk error instead of silently reporting a small
// number. (A nonexistent dir is the one benign case: zero entries.)
func TestLenPropagatesWalkErrors(t *testing.T) {
	c, _ := newCache(t)
	n, err := c.Len()
	if err != nil || n != 0 {
		t.Fatalf("Len on fresh cache = %d, %v", n, err)
	}
	if err := c.Put(fpA, []byte("p")); err != nil {
		t.Fatal(err)
	}
	if n, err = c.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v, want 1", n, err)
	}
	if os.Getuid() == 0 {
		t.Skip("running as root: permission-based walk errors cannot be provoked")
	}
	shard := filepath.Dir(c.EntryPath(fpA))
	if err := os.Chmod(shard, 0o000); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(shard, 0o755)
	if _, err := c.Len(); err == nil {
		t.Fatal("Len swallowed a walk error")
	}
}
