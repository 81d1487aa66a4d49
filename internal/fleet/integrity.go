package fleet

// Byzantine tolerance beyond the digest: the digest catches corruption
// and cross-cell replay, but a worker that computes the WRONG payload and
// honestly digests it is self-consistent — only re-execution exposes it.
// The audit sampler re-executes a seed-deterministic fraction of verified
// cells on a second worker and byte-compares; on disagreement the
// coordinator recomputes the cell locally (the same code path a worker
// runs, so bytes are the arbiter) and quarantines whichever workers
// disagree with the local truth. Quarantine is the one-strike integrity
// response: the worker is retired immediately and its queue spilled to
// the survivors.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"ristretto/internal/experiments"
)

// detRoll maps (seed, kind, key) to a uniform value in [0,1) with no
// wall-clock or ordering input — the fleet-side sibling of the
// faultinject schedule's roll, used for audit selection and backoff
// jitter so both are reproducible from the sweep seed alone.
func detRoll(seed int64, kind, key string) float64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(kind); i++ {
		h ^= uint64(kind[i])
		h *= 1099511628211
	}
	h ^= uint64(255) // separator: ("ab","c") and ("a","bc") must differ
	h *= 1099511628211
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	x := uint64(seed) ^ h
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// quarantine retires worker w for an integrity violation: one strike is
// enough, because a worker that lies once about bytes cannot be trusted
// with any cell. Idempotent per worker; the queue spill hands its pending
// cells to the survivors.
func (c *coord) quarantine(w int, reason error) {
	c.mu.Lock()
	already := c.quarantined[w]
	c.quarantined[w] = true
	c.mu.Unlock()
	if already {
		return
	}
	c.integrityQuarantined.Inc()
	c.cfg.Logf("fleet: QUARANTINE worker %d (%s): %v", w, c.cfg.Workers[w], reason)
	c.queue.retire(w)
}

// isQuarantined reports whether worker w has been quarantined.
func (c *coord) isQuarantined(w int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.quarantined[w]
}

// auditSelected decides — deterministically from the sweep seed and the
// cell key, never from timing — whether a cell's verified result is
// re-executed for audit.
func (c *coord) auditSelected(cell string) bool {
	f := c.cfg.AuditFraction
	if f <= 0 {
		return false
	}
	return detRoll(c.cfg.Seed, "audit", cell) < f
}

// computeLocal executes the cell on the coordinator, exactly as a worker
// would (same Bench construction as server.runCell), so its bytes are the
// authoritative arbiter when two workers disagree.
func (c *coord) computeLocal(ctx context.Context, cell string) (json.RawMessage, error) {
	c.integrityLocalRecompute.Inc()
	spec := c.specs[cell]
	b := experiments.NewQuickBench(spec.Seed, spec.Scale)
	b.Nets = spec.Nets
	b.Ctx = ctx
	return b.RunCellChecked(cell, experiments.RunOptions{})
}

// audit re-executes a verified cell and arbitrates. It returns the
// payload to merge — the original when the audit agrees (or cannot
// arbitrate), the locally recomputed truth when it does not — and updates
// the outcome and counters. A worker whose bytes disagree with the local
// recomputation is quarantined: its digest was self-consistent, so only
// the content was wrong — the lying-worker case.
func (c *coord) audit(ctx context.Context, cell string, out *CellOutcome, payload json.RawMessage) json.RawMessage {
	c.integrityAudits.Inc()
	out.Audited = true

	// Prefer an independent second worker; fall back to local compute.
	var second *attemptResult
	if v := c.queue.peer(out.Worker); v >= 0 {
		a := c.attempt(ctx, v, cell)
		second = &a
		if a.kind == attemptOK && bytes.Equal(a.payload, payload) {
			return payload // independent re-execution agrees, byte for byte
		}
		// Integrity violations inside the audit attempt already
		// quarantined v; disagreement or unavailability falls through to
		// local arbitration.
	}
	local, err := c.computeLocal(ctx, cell)
	if err != nil {
		// Cannot arbitrate (likely ctx cancelled). Keep the original
		// verified payload; record the unresolved disagreement if there
		// was one.
		if second != nil && second.kind == attemptOK {
			c.flagAuditMismatch(out, cell, "unarbitrated disagreement: local recompute failed: "+err.Error())
		}
		return payload
	}
	primaryHonest := bytes.Equal(payload, local)
	if second != nil && second.kind == attemptOK && !bytes.Equal(second.payload, local) {
		c.quarantine(second.worker, fmt.Errorf("audit of cell %q: payload disagrees with local recomputation", cell))
	}
	if primaryHonest {
		return payload
	}
	c.flagAuditMismatch(out, cell, "payload disagrees with local recomputation")
	c.quarantine(out.Worker, fmt.Errorf("audit of cell %q: payload disagrees with local recomputation", cell))
	return local
}

// flagAuditMismatch records one audit disagreement on the outcome.
func (c *coord) flagAuditMismatch(out *CellOutcome, cell, why string) {
	c.integrityAuditMismatch.Inc()
	out.AuditMismatch = true
	c.cfg.Logf("fleet: AUDIT MISMATCH cell %q worker %d: %s", cell, out.Worker, why)
}
