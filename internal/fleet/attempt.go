package fleet

// One dispatch attempt: POST a cell to one worker, classify the answer.
// Every payload that comes back is verified end to end before it may
// leave this file — the coordinator recomputes the fingerprint-bound
// sha256 digest over the received bytes and compares it to the worker's
// stamped digest AND to its own expected fingerprint, so a response
// corrupted in flight, a stale-schema worker, or a worker replaying
// another cell's payload is an integrity violation (quarantine), never a
// merge input.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ristretto/internal/experiments"
	"ristretto/internal/runner"
	"ristretto/internal/server"
)

// attemptKind classifies one dispatch attempt.
type attemptKind int

const (
	// attemptOK: verified payload in hand.
	attemptOK attemptKind = iota
	// attemptTerminal: deterministic cell failure (wire CellError) — the
	// same failure would reproduce on any worker, surface it.
	attemptTerminal
	// attemptRetry: the worker was unavailable, shed the request, or
	// answered garbage that looks like transport trouble; reassign the
	// cell and strike the worker.
	attemptRetry
	// attemptIntegrity: the response failed digest or fingerprint
	// verification. The offending worker has already been quarantined by
	// the time the result is returned.
	attemptIntegrity
	// attemptFatal: coordinator-level failure (request rejected) that no
	// reassignment can fix.
	attemptFatal
)

// attemptResult is one classified dispatch attempt.
type attemptResult struct {
	kind        attemptKind
	worker      int             // who answered (or failed to)
	hedge       bool            // this was the speculative attempt of a hedged pair
	payload     json.RawMessage // attemptOK only; digest-verified
	workerCache bool            // worker answered from its cell cache
	cellErr     *runner.WireCellError
	err         error
	retryAfter  time.Duration // server-suggested pause (Retry-After), 0 if none
	elapsed     time.Duration
}

// attempt runs one cell attempt against worker w under its own deadline.
// Integrity violations quarantine w before returning.
func (c *coord) attempt(ctx context.Context, w int, cell string) attemptResult {
	spec := c.specs[cell]
	fp := spec.Fingerprint()
	res := attemptResult{worker: w}
	body, _ := json.Marshal(server.CellRequest{
		Seed: spec.Seed, Scale: spec.Scale, Nets: spec.Nets, Cell: cell, DeadlineMS: c.cfg.DeadlineMS,
	})
	actx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost,
		c.cfg.Workers[w]+"/v1/cell", bytes.NewReader(body))
	if err != nil {
		res.kind, res.err = attemptFatal, err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		res.kind, res.err = attemptRetry, err // transport failure: worker gone or unreachable
		return res
	}
	defer resp.Body.Close()
	res.elapsed = time.Since(start)

	if resp.StatusCode == http.StatusOK {
		var cr server.CellResponse
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			// Truncated or garbled mid-flight: indistinguishable from a
			// dropped connection, so strike-and-reassign rather than
			// quarantine.
			res.kind, res.err = attemptRetry, fmt.Errorf("undecodable worker response: %w", err)
			return res
		}
		if verr := verifyCell(fp, &cr); verr != nil {
			c.integrityDigestMismatch.Inc()
			c.quarantine(w, fmt.Errorf("cell %q: %w", cell, verr))
			res.kind, res.err = attemptIntegrity, verr
			return res
		}
		c.latency.Observe(res.elapsed.Milliseconds())
		res.kind, res.payload, res.workerCache = attemptOK, cr.Payload, cr.Cached
		return res
	}

	var werr workerError
	_ = json.NewDecoder(resp.Body).Decode(&werr)
	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		// Shed, draining, transient fault or queue-deadline expiry: the
		// work itself is fine, try it elsewhere — after honoring any
		// server-suggested pause.
		res.kind = attemptRetry
		res.err = fmt.Errorf("worker answered %d: %s", resp.StatusCode, werr.Msg)
		res.retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
		return res
	case http.StatusInternalServerError:
		if werr.CellError != nil {
			// Deterministic failure inside the experiment: retrying on
			// another worker reproduces it. Surface it with its replay
			// seed, exactly like a local keep-going run.
			werr.CellError.Key = cell
			res.kind, res.cellErr = attemptTerminal, werr.CellError
			return res
		}
		res.kind, res.err = attemptRetry, fmt.Errorf("worker answered 500: %s", werr.Msg)
		return res
	default:
		res.kind = attemptFatal
		res.err = fmt.Errorf("worker rejected cell: %d %s", resp.StatusCode, werr.Msg)
		return res
	}
}

// verifyCell checks a 200 response end to end against the coordinator's
// own expectation: the worker's fingerprint must match ours (version skew
// or in-flight fingerprint corruption), and the payload digest — bound to
// OUR fingerprint, recomputed locally — must match the worker's stamp
// (payload corrupted in flight, or a worker whose digest does not cover
// the bytes it sent).
func verifyCell(fp string, cr *server.CellResponse) error {
	if cr.Fingerprint != fp {
		return fmt.Errorf("fingerprint mismatch: worker %q, coordinator %q", cr.Fingerprint, fp)
	}
	if got := experiments.CellPayloadDigest(fp, cr.Payload); got != cr.PayloadSHA256 {
		return fmt.Errorf("payload digest mismatch: computed %s, worker stamped %s", got, cr.PayloadSHA256)
	}
	return nil
}

// parseRetryAfter reads a Retry-After header's delay-seconds form (what
// ristretto-serve emits). Unparseable or absent values mean "no hint".
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

const (
	// backoffBase is the first exponential backoff step when the server
	// gave no Retry-After hint.
	backoffBase = 100 * time.Millisecond
	// backoffCap bounds a single pause: a worker mid-drain advertising a
	// long Retry-After should not stall its coordinator loop for longer
	// than this — the cell has already been reassigned, only this
	// worker's next poll is delayed.
	backoffCap = 5 * time.Second
)

// retryBackoff computes how long a striking worker loop pauses before its
// next attempt: the server's Retry-After hint when present, else
// exponential in the strike count (100ms, 200ms, 400ms, ... capped), with
// deterministic ±25% jitter keyed on (seed, cell, strike) so retrying
// loops de-synchronize without wall-clock randomness.
func retryBackoff(strikes int, retryAfter time.Duration, seed int64, cell string) time.Duration {
	base := retryAfter
	if base <= 0 {
		if strikes < 1 {
			strikes = 1
		}
		shift := strikes - 1
		if shift > 6 {
			shift = 6
		}
		base = backoffBase << shift
	}
	if base > backoffCap {
		base = backoffCap
	}
	jitter := 0.75 + 0.5*detRoll(seed, "backoff", fmt.Sprintf("%s/%d", cell, strikes))
	return time.Duration(float64(base) * jitter)
}
