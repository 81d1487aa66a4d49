// Package fleet is the distributed-sweep coordinator: it enumerates the
// experiment suite's sweep cells (the same stable keys the checkpoint
// journal uses), distributes them over a set of ristretto-serve workers
// through the /v1/cell endpoint with a work-stealing bounded queue, and
// merges the per-worker payloads into a result list byte-identical to a
// serial experiments.All() run — the distributed-sweep determinism
// guarantee, enforced by the cross-process determinism and chaos suites.
//
// Byzantine tolerance — the coordinator assumes workers can lie, stall
// and die, and defends each layer separately:
//
//   - end-to-end integrity: every 200 response is verified against the
//     coordinator's own fingerprint-bound sha256 payload digest
//     (experiments.CellPayloadDigest) before it may enter the merge, a
//     cache or the journal. A digest or fingerprint violation quarantines
//     the worker on the spot (one strike, deque spilled to survivors) and
//     the cell recomputes elsewhere;
//   - audit sampling: a seed-deterministic fraction of verified cells
//     (Config.AuditFraction) is re-executed on a second worker and
//     byte-compared — catching a worker whose payload is wrong but whose
//     digest is self-consistent; disagreements are arbitrated by local
//     recomputation, which also decides who gets quarantined;
//   - hedged dispatch: a cell straggling past the hedge delay (fixed or
//     derived from attempt-latency telemetry, see HedgeAuto) races a
//     speculative second attempt; the first verified result wins and the
//     loser is cancelled mid-flight;
//   - crash-resume: with Config.JournalPath set, assignment and verified
//     completion state is journaled through fsynced, crc-guarded records,
//     so a SIGKILLed coordinator resumes without re-dispatching completed
//     cells (Config.Resume);
//   - retryable failures (worker dead, shed, draining) reassign the cell
//     to a survivor and strike the worker — honoring a Retry-After hint
//     with jittered, context-aware backoff — and enough consecutive
//     strikes retire it. A cell that fails deterministically on a healthy
//     worker is NOT retried elsewhere: the remote *runner.CellError
//     crosses the wire with its replay seed and surfaces as the same
//     placeholder Result a local keep-going run produces.
//
// A content-addressed cell cache (internal/cellcache, keyed by
// experiments.CellSpec.Fingerprint) sits in front of dispatch: cells
// already cached are served locally without touching a worker, and every
// computed payload is written back, so a repeat sweep is near-free.
//
// Telemetry lands under fleet.steal.* (local_pops, steals, reassigned,
// workers_retired), fleet.cache.* (see cellcache), fleet.integrity.*
// (digest_mismatch, quarantined, audits, audit_mismatch,
// local_recompute), fleet.hedge.* (launched, wins, cancelled) and
// fleet.journal.* (records, resumed_cells, corrupt).
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"ristretto/internal/cellcache"
	"ristretto/internal/experiments"
	"ristretto/internal/faultinject"
	"ristretto/internal/runner"
	"ristretto/internal/telemetry"
)

// Config describes one fleet sweep: the workload (identical to what a
// serial bench run would use) and the worker set to spread it over.
type Config struct {
	// Workers are the base URLs of ristretto-serve processes (e.g.
	// "http://127.0.0.1:8080"). At least one is required.
	Workers []string
	// Seed, Scale, Nets configure the workload exactly like
	// experiments.Bench — they are the cache identity of every cell.
	Seed  int64
	Scale int
	Nets  []string
	// CacheDir, when non-empty, opens the coordinator-side cell cache
	// there: cached cells skip dispatch, computed cells are written back.
	// The cache is scrubbed on open (corrupt entries deleted) and degrades
	// to read-only after persistent write failures — a full or lying disk
	// slows the sweep, it never fails it.
	CacheDir string
	// CacheMaxBytes bounds the cell cache's on-disk footprint; entries past
	// the bound are evicted by a deterministic second-chance sweep
	// (0 = unbounded).
	CacheMaxBytes int64
	// DiskFault, when non-zero, threads the seed-deterministic disk fault
	// FS (ENOSPC, EIO, failed fsync, torn writes, bit rot — see
	// internal/faultinject) under the coordinator's cell cache and journal;
	// the disk-chaos gates prove the storage robustness story with it.
	DiskFault faultinject.DiskSpec
	// JournalPath, when non-empty, journals assignment and completion
	// state there (crc-guarded, fsynced per record) for crash-resume.
	JournalPath string
	// Resume loads an existing journal at JournalPath and skips its
	// verified completions instead of re-dispatching them. The journal's
	// workload fingerprint must match this sweep.
	Resume bool
	// AuditFraction, in [0,1], is the seed-deterministic fraction of
	// computed cells re-executed on a second worker and byte-compared
	// (0 = no audits). Disagreements arbitrate against a local
	// recomputation and quarantine the dishonest worker.
	AuditFraction float64
	// HedgeAfter controls speculative re-dispatch of stragglers:
	// 0 disables hedging, a positive duration hedges after that fixed
	// delay, and HedgeAuto derives the delay from attempt-latency
	// telemetry (3× P95 once enough samples exist).
	HedgeAfter time.Duration
	// NetFault, when non-zero, wraps the coordinator's transport in the
	// seed-deterministic response-fault injector (corrupt, truncate,
	// black-hole, slow-drip) — the chaos gates prove the integrity
	// pipeline with it.
	NetFault faultinject.NetSpec
	// DeadlineMS is the per-cell request deadline sent to workers
	// (0 = the worker's default).
	DeadlineMS int64
	// RequestTimeout bounds one HTTP attempt end to end, including queue
	// time on the worker; 0 = 5m. Keep it above DeadlineMS.
	RequestTimeout time.Duration
	// WorkerStrikes is how many consecutive retryable failures retire a
	// worker; 0 = 3. Integrity violations ignore this: one is enough.
	WorkerStrikes int
	// Client overrides the HTTP client (tests inject httptest clients);
	// nil builds a tuned pooled transport (see newClient). NetFault wraps
	// either.
	Client *http.Client
	// Registry receives fleet.* metrics; nil = telemetry.Default.
	Registry *telemetry.Registry
	// Logf, when non-nil, receives coordinator progress lines.
	Logf func(format string, args ...any)
}

// CellOutcome records where one cell's payload came from.
type CellOutcome struct {
	Cell          string                `json:"cell"`
	Fingerprint   string                `json:"fingerprint"`
	Worker        int                   `json:"worker"`                   // index into Config.Workers; -1 = local (cache or journal)
	Stolen        bool                  `json:"stolen,omitempty"`         // dispatched via a steal
	WorkerCache   bool                  `json:"worker_cache,omitempty"`   // worker answered from its cell cache
	LocalCache    bool                  `json:"local_cache,omitempty"`    // served from CacheDir without dispatch
	Resumed       bool                  `json:"resumed,omitempty"`        // served from the crash-resume journal
	Hedged        bool                  `json:"hedged,omitempty"`         // a speculative second attempt was launched
	HedgeWon      bool                  `json:"hedge_won,omitempty"`      // the speculative attempt delivered the payload
	Audited       bool                  `json:"audited,omitempty"`        // re-executed by the audit sampler
	AuditMismatch bool                  `json:"audit_mismatch,omitempty"` // audit caught a disagreement (payload arbitrated locally)
	Attempts      int                   `json:"attempts"`                 // dispatch attempts (0 for local cache/journal)
	Err           *runner.WireCellError `json:"err,omitempty"`            // terminal deterministic failure
}

// Report summarizes a fleet sweep for manifests and the CI gates.
type Report struct {
	Cells            int           `json:"cells"`
	Workers          int           `json:"workers"`
	LocalCacheHits   int           `json:"local_cache_hits"`
	ResumedCells     int           `json:"resumed_cells"`
	Computed         int           `json:"computed"`
	Failures         int           `json:"failures"`
	Steals           int64         `json:"steals"`
	Reassigned       int64         `json:"reassigned"`
	RetiredWorkers   int           `json:"retired_workers"`
	DigestMismatches int64         `json:"digest_mismatches"`
	Quarantined      int64         `json:"quarantined"`
	Audits           int64         `json:"audits"`
	AuditMismatches  int64         `json:"audit_mismatches"`
	HedgesLaunched   int64         `json:"hedges_launched"`
	HedgeWins        int64         `json:"hedge_wins"`
	CacheWriteErrors int64         `json:"cache_write_errors"`
	CacheReadErrors  int64         `json:"cache_read_errors"`
	CacheEvicted     int64         `json:"cache_evicted"`
	CacheScrubbed    int64         `json:"cache_scrubbed"`
	CacheCorrupt     int64         `json:"cache_corrupt"`
	CacheDegraded    bool          `json:"cache_degraded,omitempty"`
	Elapsed          time.Duration `json:"elapsed_ns"`
	Outcomes         []CellOutcome `json:"outcomes"` // paper order
}

// workerError is the JSON error body a worker answers with (the server's
// apiError shape), carrying the wire CellError for deterministic failures.
type workerError struct {
	Status    int                   `json:"status"`
	Msg       string                `json:"error"`
	CellError *runner.WireCellError `json:"cell_error"`
}

// coord is one Run invocation's state.
type coord struct {
	cfg     Config
	client  *http.Client
	cache   *cellcache.Cache // nil without CacheDir
	journal *journal         // nil without JournalPath
	queue   *stealQueue
	specs   map[string]experiments.CellSpec
	latency *telemetry.Histogram // successful attempt latency (ms), feeds HedgeAuto

	integrityDigestMismatch *telemetry.Counter
	integrityQuarantined    *telemetry.Counter
	integrityAudits         *telemetry.Counter
	integrityAuditMismatch  *telemetry.Counter
	integrityLocalRecompute *telemetry.Counter
	hedgeLaunched           *telemetry.Counter
	hedgeWins               *telemetry.Counter
	hedgeCancelled          *telemetry.Counter

	mu          sync.Mutex
	payloads    map[string]json.RawMessage
	outcomes    map[string]*CellOutcome
	quarantined map[int]bool
	fatal       error // non-retryable coordinator-level failure (config skew)
}

// counterDelta remembers a counter's value at sweep start so the report
// can publish this run's contribution (registries are cumulative).
type counterDelta struct {
	c    *telemetry.Counter
	base int64
}

func delta(c *telemetry.Counter) counterDelta { return counterDelta{c, c.Load()} }
func (d counterDelta) since() int64           { return d.c.Load() - d.base }

// Run executes the full sweep over the fleet and returns the merged
// results in paper order — byte-identical to a serial run of the same
// workload — plus the dispatch report. Deterministic cell failures
// surface as keep-going placeholder Results (and in the report), not as a
// Run error; Run itself fails only when cells could not be executed at
// all (every worker retired, config rejected, context cancelled).
func Run(ctx context.Context, cfg Config) ([]*experiments.Result, Report, error) {
	if len(cfg.Workers) == 0 {
		return nil, Report{}, fmt.Errorf("fleet: no workers configured")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.WorkerStrikes <= 0 {
		cfg.WorkerStrikes = 3
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Minute
	}
	if cfg.AuditFraction < 0 || cfg.AuditFraction > 1 {
		return nil, Report{}, fmt.Errorf("fleet: audit fraction %v not in [0,1]", cfg.AuditFraction)
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.Default
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	for i, w := range cfg.Workers {
		cfg.Workers[i] = strings.TrimRight(w, "/")
	}

	r := cfg.Registry
	c := &coord{
		cfg:         cfg,
		specs:       map[string]experiments.CellSpec{},
		payloads:    map[string]json.RawMessage{},
		outcomes:    map[string]*CellOutcome{},
		quarantined: map[int]bool{},
		latency:     r.Histogram("fleet.attempt_ms"),

		integrityDigestMismatch: r.Counter("fleet.integrity.digest_mismatch"),
		integrityQuarantined:    r.Counter("fleet.integrity.quarantined"),
		integrityAudits:         r.Counter("fleet.integrity.audits"),
		integrityAuditMismatch:  r.Counter("fleet.integrity.audit_mismatch"),
		integrityLocalRecompute: r.Counter("fleet.integrity.local_recompute"),
		hedgeLaunched:           r.Counter("fleet.hedge.launched"),
		hedgeWins:               r.Counter("fleet.hedge.wins"),
		hedgeCancelled:          r.Counter("fleet.hedge.cancelled"),
	}
	if cfg.Client != nil {
		c.client = wrapClient(cfg.Client, cfg.NetFault)
	} else {
		c.client = newClient(&cfg)
	}
	// The disk-fault FS sits under every coordinator-side storage layer —
	// cache and journal — exactly like the net-fault transport sits under
	// every request. Cache counter deltas anchor here, before the open-time
	// scrub runs.
	cacheDeltas := map[string]counterDelta{
		"write_errors": delta(r.Counter("fleet.cache.write_errors")),
		"read_errors":  delta(r.Counter("fleet.cache.read_errors")),
		"evicted":      delta(r.Counter("fleet.cache.evicted")),
		"scrubbed":     delta(r.Counter("fleet.cache.scrubbed")),
		"corrupt":      delta(r.Counter("fleet.cache.corrupt")),
	}
	fsys := faultinject.NewDiskFS(cfg.DiskFault, nil)
	if cfg.CacheDir != "" {
		cache, err := cellcache.OpenWith(cfg.CacheDir, r, cellcache.Options{
			FS: fsys, MaxBytes: cfg.CacheMaxBytes, ScrubOnOpen: true,
		})
		if err != nil {
			return nil, Report{}, fmt.Errorf("fleet: opening cell cache: %w", err)
		}
		c.cache = cache
	}

	start := time.Now()
	bench := experiments.Bench{Seed: cfg.Seed, Scale: cfg.Scale, Nets: cfg.Nets}
	keys := experiments.CellKeys()
	rep := Report{Cells: len(keys), Workers: len(cfg.Workers)}

	if cfg.JournalPath != "" {
		j, err := openJournal(fsys, cfg.JournalPath, bench.Fingerprint(), cfg.Resume, r)
		if err != nil {
			return nil, Report{}, err
		}
		c.journal = j
		defer j.close()
		if j.resumable() {
			cfg.Logf("fleet: resuming from %s (%d verified completions, %d corrupt records skipped)",
				cfg.JournalPath, j.log.Cells(), j.corruptRecords())
		}
	}

	// Phase 1: serve everything already settled — journaled completions
	// from a killed predecessor first (cache-independent), then the local
	// cell cache. Cache hits are journaled too, so the NEXT resume does
	// not depend on the cache surviving.
	var todo []string
	for _, key := range keys {
		spec := bench.CellSpec(key)
		c.specs[key] = spec
		fp := spec.Fingerprint()
		if c.journal != nil {
			if jfp, payload, ok := c.journal.lookup(key); ok && jfp == fp {
				c.payloads[key] = payload
				c.outcomes[key] = &CellOutcome{Cell: key, Fingerprint: fp, Worker: -1, Resumed: true}
				rep.ResumedCells++
				continue
			}
		}
		if c.cache != nil {
			if payload, ok := c.cache.Get(fp); ok {
				c.payloads[key] = payload
				c.outcomes[key] = &CellOutcome{Cell: key, Fingerprint: fp, Worker: -1, LocalCache: true}
				rep.LocalCacheHits++
				if c.journal != nil {
					if err := c.journal.complete(key, fp, payload); err != nil {
						cfg.Logf("fleet: journaling cache hit %q: %v", key, err)
					}
				}
				continue
			}
		}
		todo = append(todo, key)
	}
	cfg.Logf("fleet: %d cells, %d resumed from journal, %d from local cache, %d to dispatch over %d workers",
		len(keys), rep.ResumedCells, rep.LocalCacheHits, len(todo), len(cfg.Workers))

	// Phase 2: work-stealing dispatch of the rest. Report counts are
	// deltas over the run, because the registry's counters are cumulative
	// across runs sharing it. The cache scrub/write-error counts start at
	// open (before phase 1), so their deltas are anchored there instead.
	c.queue = newStealQueue(len(cfg.Workers), todo, r)
	deltas := map[string]counterDelta{
		"steals":     delta(c.queue.steals),
		"reassigned": delta(c.queue.reassigns),
		"digest":     delta(c.integrityDigestMismatch),
		"quarantine": delta(c.integrityQuarantined),
		"audits":     delta(c.integrityAudits),
		"auditmiss":  delta(c.integrityAuditMismatch),
		"hedges":     delta(c.hedgeLaunched),
		"hedgewins":  delta(c.hedgeWins),
	}
	var wg sync.WaitGroup
	for w := range cfg.Workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c.workerLoop(ctx, w)
		}(w)
	}
	wg.Wait()

	rep.Steals = deltas["steals"].since()
	rep.Reassigned = deltas["reassigned"].since()
	rep.DigestMismatches = deltas["digest"].since()
	rep.Quarantined = deltas["quarantine"].since()
	rep.Audits = deltas["audits"].since()
	rep.AuditMismatches = deltas["auditmiss"].since()
	rep.HedgesLaunched = deltas["hedges"].since()
	rep.HedgeWins = deltas["hedgewins"].since()
	rep.CacheWriteErrors = cacheDeltas["write_errors"].since()
	rep.CacheReadErrors = cacheDeltas["read_errors"].since()
	rep.CacheEvicted = cacheDeltas["evicted"].since()
	rep.CacheScrubbed = cacheDeltas["scrubbed"].since()
	rep.CacheCorrupt = cacheDeltas["corrupt"].since()
	if c.cache != nil {
		rep.CacheDegraded = c.cache.Degraded()
	}
	rep.RetiredWorkers = len(cfg.Workers) - c.queue.alive()
	rep.Elapsed = time.Since(start)

	if c.fatal != nil {
		return nil, rep, c.fatal
	}
	if err := ctx.Err(); err != nil {
		return nil, rep, err
	}
	if left := c.queue.unassigned(); len(left) > 0 {
		return nil, rep, fmt.Errorf("fleet: %d cells unassigned after every worker retired: %v", len(left), left)
	}

	// Phase 3: merge in paper order; deterministic failures become the
	// same placeholder Results a local keep-going run produces.
	var results []*experiments.Result
	for _, key := range keys {
		out := c.outcomes[key]
		if out == nil {
			return nil, rep, fmt.Errorf("fleet: cell %q never completed", key)
		}
		rep.Outcomes = append(rep.Outcomes, *out)
		if out.Err != nil {
			rep.Failures++
			results = append(results, experiments.FailedCell(key, out.Err.CellError()))
			continue
		}
		rs, err := experiments.DecodeCellPayload(c.payloads[key])
		if err != nil {
			return nil, rep, fmt.Errorf("fleet: corrupt payload for cell %q: %w", key, err)
		}
		results = append(results, rs...)
		if !out.LocalCache && !out.Resumed {
			rep.Computed++
		}
	}
	return results, rep, nil
}

// workerLoop drains cells for worker w until the sweep finishes or the
// worker is retired (struck out, or quarantined for an integrity
// violation).
func (c *coord) workerLoop(ctx context.Context, w int) {
	strikes := 0
	for {
		cell, stolen, ok := c.queue.next(w)
		if !ok {
			return
		}
		if ctx.Err() != nil {
			c.queue.reassign(cell, w)
			c.queue.retire(w)
			return
		}
		if c.journal != nil {
			if err := c.journal.assign(cell, w); err != nil {
				c.cfg.Logf("fleet: journaling assignment of %q: %v", cell, err)
			}
		}
		res := c.runCell(ctx, w, cell)
		fp := c.specs[cell].Fingerprint()
		switch res.kind {
		case attemptOK:
			strikes = 0
			out := &CellOutcome{
				Cell: cell, Fingerprint: fp, Worker: res.worker, Stolen: stolen,
				WorkerCache: res.workerCache, Attempts: 1,
				Hedged: res.hedge || res.worker != w, HedgeWon: res.hedge,
			}
			if out.Hedged {
				out.Attempts = 2
			}
			payload := res.payload
			if c.auditSelected(cell) {
				payload = c.audit(ctx, cell, out, payload)
			}
			c.mu.Lock()
			c.payloads[cell] = payload
			c.mu.Unlock()
			if c.cache != nil {
				_ = c.cache.Put(fp, payload) // best effort; a miss next run recomputes
			}
			if c.journal != nil {
				if err := c.journal.complete(cell, fp, payload); err != nil {
					c.cfg.Logf("fleet: journaling completion of %q: %v", cell, err)
				}
			}
			c.record(cell, out)
			c.queue.complete()
			if c.isQuarantined(w) {
				return // an audit found this worker lying mid-sweep
			}
		case attemptTerminal:
			strikes = 0
			out := &CellOutcome{
				Cell: cell, Fingerprint: fp, Worker: res.worker, Stolen: stolen,
				Attempts: 1, Err: res.cellErr,
			}
			c.record(cell, out)
			c.queue.complete()
		case attemptFatal:
			// Coordinator-level failure (request rejected, config skew):
			// no worker will do better, fail the run.
			c.mu.Lock()
			if c.fatal == nil {
				c.fatal = fmt.Errorf("fleet: cell %q on worker %d: %w", cell, w, res.err)
			}
			c.mu.Unlock()
			c.queue.complete()
		case attemptIntegrity:
			// The offending worker is already quarantined (attempt did
			// it). Put the cell back into play for the survivors; if the
			// offender was this loop's own worker, the loop is done.
			c.queue.reassign(cell, w)
			if c.isQuarantined(w) {
				return
			}
		default: // attemptRetry
			strikes++
			c.cfg.Logf("fleet: worker %d failed cell %q (strike %d/%d): %v",
				w, cell, strikes, c.cfg.WorkerStrikes, res.err)
			c.queue.reassign(cell, w)
			if strikes >= c.cfg.WorkerStrikes {
				c.cfg.Logf("fleet: retiring worker %d (%s)", w, c.cfg.Workers[w])
				c.queue.retire(w)
				return
			}
			// Satellite of the integrity work: strike pauses honor the
			// server's Retry-After and de-synchronize via deterministic
			// jitter. The cell is already reassigned — only this worker's
			// next poll waits.
			if !runner.SleepCtx(ctx, retryBackoff(strikes, res.retryAfter, c.cfg.Seed, cell)) {
				c.queue.retire(w)
				return
			}
		}
	}
}

// record stores a completed cell's outcome under the lock.
func (c *coord) record(cell string, out *CellOutcome) {
	c.mu.Lock()
	c.outcomes[cell] = out
	c.mu.Unlock()
}
