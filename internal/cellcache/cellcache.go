// Package cellcache is the fleet-wide content-addressed result cache:
// sweep-cell payloads stored on disk under the cell's stable fingerprint
// (see experiments.CellSpec.Fingerprint), so identical cells compute once
// and repeat sweeps are served from disk in microseconds.
//
// Correctness over convenience:
//
//   - entries are CRC-guarded: every file carries a crc32 of its payload,
//     verified on read — a corrupt or torn entry is deleted and reported
//     as a miss (recomputed, never served), mirroring the checkpoint
//     journal's discipline;
//   - entries are digest-bound: every file also carries the end-to-end
//     sha256 payload digest (experiments.CellPayloadDigest), which binds
//     the payload bytes to the fingerprint the entry is addressed by. A
//     payload copied or rewritten under the wrong fingerprint — or a
//     well-formed-but-wrong payload written by a corrupted writer whose
//     CRC still matches — fails the digest check and is deleted and
//     recomputed, never served;
//   - writes are crash-safe through safeio (temp file + fsync + rename),
//     so a SIGKILL mid-write leaves the old entry or none, never a hybrid;
//   - concurrent requests for the same fingerprint singleflight through Do,
//     on an internal/memo cache with a zero budget (payloads live on disk,
//     so it holds only the fills in progress): one leader computes while
//     waiters wait on the in-flight result under their own contexts, under
//     memo.Cache.Do's joiner rule, and neither errors nor panics are cached;
//   - the store is append-only content addressing — a fingerprint's bytes
//     never change once written, so hits are byte-identical to the
//     computation that produced them (the cache correctness tests enforce
//     all of this).
//
// The disk is not trusted either (the disk-fault chaos suites exercise all
// of this through the safeio FS seam):
//
//   - a cache whose writes keep failing (ENOSPC, failed fsync) degrades to
//     read-only pass-through after Options.WriteFailLimit consecutive
//     failures: results still flow, they just stop being cached — a full
//     disk slows a sweep down, it never fails one;
//   - read errors that are not ENOENT are counted separately from plain
//     misses and answered by recomputation, never by guessing;
//   - Scrub walks every entry, verifies CRC and digest, and deletes what
//     does not verify — run on open by the fleet and the serve daemon, and
//     on demand via ristretto-fleet -scrub;
//   - Options.MaxBytes bounds the store: a deterministic second-chance
//     (clock) sweep evicts cold entries — hits set the reference bit — so
//     the on-disk footprint stays put while a warm working set keeps its
//     >=90% hit rate.
//
// Telemetry lands under fleet.cache.*: hits, misses, writes, corrupt
// entries, inflight dedups, write_errors, read_errors, evicted, scrubbed
// and degraded.
package cellcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"ristretto/internal/experiments"
	"ristretto/internal/memo"
	"ristretto/internal/safeio"
	"ristretto/internal/telemetry"
)

// Schema is the first header token of every cache entry file. Bump on
// incompatible format change; old entries then fail the header check and
// are recomputed. v2 added the fingerprint-bound sha256 payload digest to
// the header — v1 entries (crc-only) fail the schema check and recompute.
const Schema = "ristretto.cell-cache/v2"

// ErrDegraded is returned by Put once the cache has degraded to read-only
// after persistent write failures. Callers already treat Put errors as
// "uncached but correct"; the sentinel lets them tell degradation from a
// fresh failure.
var ErrDegraded = errors.New("cellcache: degraded to read-only after persistent write failures")

// Options tunes a cache beyond the defaults Open picks.
type Options struct {
	// FS is the filesystem seam (nil = safeio.OS). The disk-fault chaos
	// suites inject a lying disk here.
	FS safeio.FS
	// MaxBytes bounds the total size of entry files; 0 = unbounded. When a
	// write pushes the store over the bound, a deterministic second-chance
	// sweep evicts cold entries until it fits.
	MaxBytes int64
	// ScrubOnOpen verifies every entry (CRC + digest) while opening,
	// deleting what does not verify. The fleet coordinator and the serve
	// daemon open with this set; bare Open does not.
	ScrubOnOpen bool
	// WriteFailLimit is how many consecutive Put failures degrade the
	// cache to read-only pass-through; 0 = 3, negative = never degrade.
	WriteFailLimit int
}

// entry is the in-memory accounting for one on-disk file: its size and the
// second-chance reference bit (set on every hit, cleared by the sweeping
// clock hand; an entry the hand finds cleared is evicted).
type entry struct {
	fp   string
	size int64
	ref  bool
}

// Cache is the content-addressed store rooted at a directory. Entries are
// sharded two hex chars deep (dir/ab/abcd...) to keep directories small at
// fleet scale. Safe for concurrent use by multiple goroutines; multiple
// processes may share a directory (atomic same-content writes commute),
// though the singleflight span — and the capacity accounting — is
// per-process.
type Cache struct {
	dir  string
	fsys safeio.FS

	fills *memo.Cache[[]byte] // Do's singleflight; zero budget, so only fills in progress

	// emu guards the capacity/eviction state and the degraded flag.
	emu         sync.Mutex
	entries     map[string]*entry
	clock       []*entry // ring in discovery order; nil = evicted hole
	hand        int
	total       int64
	maxBytes    int64
	failLimit   int
	consecFails int
	degraded    bool

	hits        *telemetry.Counter
	misses      *telemetry.Counter
	writes      *telemetry.Counter
	corrupt     *telemetry.Counter
	dedup       *telemetry.Counter
	writeErrors *telemetry.Counter
	readErrors  *telemetry.Counter
	evicted     *telemetry.Counter
	scrubbed    *telemetry.Counter
	degradedC   *telemetry.Counter
}

// Open prepares a cache rooted at dir with default options, creating it as
// needed. Metrics land in r (nil = telemetry.Default) under fleet.cache.*.
func Open(dir string, r *telemetry.Registry) (*Cache, error) {
	return OpenWith(dir, r, Options{})
}

// OpenWith is Open with explicit Options. With ScrubOnOpen set the whole
// store is verified (and corrupt entries deleted) before OpenWith returns;
// with MaxBytes set the store is inventoried and evicted down to the bound.
func OpenWith(dir string, r *telemetry.Registry, opts Options) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("cellcache: empty cache directory")
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = safeio.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if r == nil {
		r = telemetry.Default
	}
	failLimit := opts.WriteFailLimit
	if failLimit == 0 {
		failLimit = 3
	}
	c := &Cache{
		dir:         dir,
		fsys:        fsys,
		fills:       memo.New[[]byte](0, nil, nil, "", ""),
		entries:     map[string]*entry{},
		maxBytes:    opts.MaxBytes,
		failLimit:   failLimit,
		hits:        r.Counter("fleet.cache.hits"),
		misses:      r.Counter("fleet.cache.misses"),
		writes:      r.Counter("fleet.cache.writes"),
		corrupt:     r.Counter("fleet.cache.corrupt"),
		dedup:       r.Counter("fleet.cache.inflight_dedup"),
		writeErrors: r.Counter("fleet.cache.write_errors"),
		readErrors:  r.Counter("fleet.cache.read_errors"),
		evicted:     r.Counter("fleet.cache.evicted"),
		scrubbed:    r.Counter("fleet.cache.scrubbed"),
		degradedC:   r.Counter("fleet.cache.degraded"),
	}
	if opts.ScrubOnOpen {
		if _, err := c.Scrub(); err != nil {
			return nil, fmt.Errorf("cellcache: scrub on open: %w", err)
		}
	} else if c.maxBytes > 0 {
		if err := c.inventory(); err != nil {
			return nil, fmt.Errorf("cellcache: inventory: %w", err)
		}
	}
	return c, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// Degraded reports whether persistent write failures have degraded the
// cache to read-only pass-through.
func (c *Cache) Degraded() bool {
	c.emu.Lock()
	defer c.emu.Unlock()
	return c.degraded
}

// path maps a fingerprint to its entry file. Fingerprints are hex sha256
// strings; anything shorter than the shard width still gets a stable path.
func (c *Cache) path(fp string) string {
	shard := fp
	if len(shard) > 2 {
		shard = fp[:2]
	}
	return filepath.Join(c.dir, shard, fp)
}

// EntryPath returns the file a fingerprint's entry lives at — for tools
// and the crash-consistency matrix, which plants torn entries there.
func (c *Cache) EntryPath(fp string) string { return c.path(fp) }

// Get returns the cached payload for a fingerprint. A present entry whose
// header, CRC or fingerprint-bound payload digest does not verify is
// deleted and reported as a miss — a corrupt entry is recomputed, never
// served. A read that fails for any reason other than the entry not
// existing counts under fleet.cache.read_errors (and still misses: real
// I/O trouble is answered by recomputation, not by guessing). The returned
// bytes are the caller's to keep (freshly read, not shared).
func (c *Cache) Get(fp string) ([]byte, bool) {
	data, err := c.fsys.ReadFile(c.path(fp))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			c.readErrors.Inc()
		}
		c.misses.Inc()
		return nil, false
	}
	payload, ok := decodeEntry(fp, data)
	if !ok {
		c.corrupt.Inc()
		c.misses.Inc()
		c.fsys.Remove(c.path(fp))
		c.dropEntry(fp)
		return nil, false
	}
	c.hits.Inc()
	c.noteEntry(fp, int64(len(data)))
	return payload, true
}

// Put stores a payload under its fingerprint, crash-safely. Re-putting an
// existing fingerprint rewrites the same content (content addressing: the
// bytes are a pure function of the fingerprint's cell). Failures count
// under fleet.cache.write_errors; after WriteFailLimit consecutive
// failures the cache degrades to read-only and Put returns ErrDegraded
// without touching the disk — a full disk must only ever cost speed.
func (c *Cache) Put(fp string, payload []byte) error {
	if c.Degraded() {
		return ErrDegraded
	}
	data := encodeEntry(fp, payload)
	err := c.write(fp, data)
	if err != nil {
		c.writeErrors.Inc()
		c.emu.Lock()
		c.consecFails++
		if c.failLimit > 0 && c.consecFails >= c.failLimit && !c.degraded {
			c.degraded = true
			c.degradedC.Inc()
		}
		c.emu.Unlock()
		return err
	}
	c.writes.Inc()
	c.emu.Lock()
	c.consecFails = 0
	c.emu.Unlock()
	c.noteEntry(fp, int64(len(data)))
	return nil
}

// write performs the crash-safe on-disk store of one encoded entry.
func (c *Cache) write(fp string, data []byte) error {
	p := c.path(fp)
	if err := c.fsys.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	return safeio.WriteFileFS(c.fsys, p, data, 0o644)
}

// Do answers a fingerprint through the cache with singleflight semantics:
// a disk hit returns immediately (hit=true); otherwise the first caller
// becomes the leader, runs compute, stores a successful result and
// publishes it to every concurrent caller of the same fingerprint
// (hit=false for all of them). Waiters wait under ctx, and the flight
// follows memo.Cache.Do: a failed compute is returned to the whole flight
// and nothing is cached, unless fillerOnly marks the error as the
// leader's own, when each waiter makes its own attempt. A panicking
// compute makes every waiter panic with the same value. Every waiter
// counts once in fleet.cache.inflight_dedup.
func (c *Cache) Do(ctx context.Context, fp string, compute func() ([]byte, error), fillerOnly func(error) bool) (payload []byte, hit bool, err error) {
	if v, ok := c.Get(fp); ok {
		return v, true, nil
	}
	joined := false // memo tests an outcome only for a waiter, so a test means this caller joined
	v, shared, err := c.fills.Do(ctx, fp, func() ([]byte, error) {
		v, err := compute()
		if err == nil {
			// A failed write degrades to uncached: the result is still
			// correct and still published to waiters, it just won't be a
			// hit next time. Put itself tallies the failure under
			// fleet.cache.write_errors and trips the read-only
			// degradation, so nothing is silent.
			_ = c.Put(fp, v)
		}
		return v, err
	}, func(err error) bool {
		joined = true
		return fillerOnly != nil && fillerOnly(err)
	})
	if shared || joined { // the store never holds a value, so shared means a joined fill
		c.dedup.Inc()
	}
	return v, false, err
}

// Len walks the store and counts valid-looking entries — an O(entries)
// maintenance/test helper, not a hot-path call. Walk errors surface
// instead of silently shrinking the count.
func (c *Cache) Len() (int, error) {
	n := 0
	err := c.fsys.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || strings.HasPrefix(filepath.Base(path), ".") {
			return nil
		}
		n++
		return nil
	})
	return n, err
}

// encodeEntry frames a payload: one header line "schema crc8hex digest",
// then the raw payload bytes (which may themselves contain newlines). The
// digest is the fingerprint-bound end-to-end sha256
// (experiments.CellPayloadDigest), so the entry's integrity is checked
// against the address it is served under, not just against bit rot.
func encodeEntry(fp string, payload []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %08x %s\n", Schema, crc32.ChecksumIEEE(payload), experiments.CellPayloadDigest(fp, payload))
	b.Write(payload)
	return b.Bytes()
}

// decodeEntry reverses encodeEntry for the entry addressed by fp,
// rejecting wrong schemas, torn headers, headers with trailing junk after
// the digest token, payloads whose CRC does not match, and payloads whose
// fingerprint-bound digest does not verify — the last catches
// well-formed-but-wrong bytes a checksum alone would happily serve (an
// entry renamed to another fingerprint's path, or a corrupted writer that
// recomputed the CRC over the wrong payload).
func decodeEntry(fp string, data []byte) ([]byte, bool) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, false
	}
	header := string(data[:nl])
	payload := data[nl+1:]
	// Exactly three fields: "schema crc8hex digest". Sscanf-style parsing
	// would accept trailing junk after the digest, which a strict framing
	// check must not.
	fields := strings.Fields(header)
	if len(fields) != 3 || fields[0] != Schema || len(fields[1]) != 8 {
		return nil, false
	}
	sum64, err := strconv.ParseUint(fields[1], 16, 32)
	if err != nil {
		return nil, false
	}
	if crc32.ChecksumIEEE(payload) != uint32(sum64) {
		return nil, false
	}
	if fields[2] != experiments.CellPayloadDigest(fp, payload) {
		return nil, false
	}
	return payload, true
}
