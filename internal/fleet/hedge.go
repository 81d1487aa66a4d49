package fleet

// Hedged dispatch: a cell stuck on a straggling worker is speculatively
// re-dispatched to a second worker after a delay; the first VERIFIED
// result wins and the loser's attempt is cancelled mid-flight (the
// per-attempt context makes that cheap). The delay is either fixed
// (Config.HedgeAfter > 0) or derived from the fleet's own attempt-latency
// telemetry (HedgeAuto): 3× the observed P95, so hedges fire only for
// genuine outliers, not for the natural spread. Determinism is untouched:
// both attempts compute the same pure function, and whichever answer wins
// passed the same digest verification.

import (
	"context"
	"time"
)

// HedgeAuto is the Config.HedgeAfter sentinel selecting the adaptive,
// telemetry-derived hedge delay.
const HedgeAuto time.Duration = -1

const (
	// hedgeMinSamples is how many successful attempts the latency
	// histogram must hold before the adaptive delay trusts its P95.
	hedgeMinSamples = 5
	// hedgeFloor is the minimum adaptive delay — hedging faster than this
	// just doubles load on a healthy fleet.
	hedgeFloor = 50 * time.Millisecond
	// hedgeP95Factor scales the observed P95 into the hedge delay.
	hedgeP95Factor = 3
)

// hedgeDelay resolves the current hedge delay. ok=false means "do not
// hedge this attempt" — hedging disabled, or the adaptive estimator has
// too few samples to tell a straggler from normal spread.
func (c *coord) hedgeDelay() (time.Duration, bool) {
	switch {
	case c.cfg.HedgeAfter == 0:
		return 0, false
	case c.cfg.HedgeAfter > 0:
		return c.cfg.HedgeAfter, true
	}
	if c.latency.Count() < hedgeMinSamples {
		return 0, false
	}
	d := time.Duration(hedgeP95Factor*c.latency.Quantile(0.95)) * time.Millisecond
	if d < hedgeFloor {
		d = hedgeFloor
	}
	return d, true
}

// runCell executes one cell from worker w's perspective: a primary
// attempt, plus — once the hedge delay expires with the primary still in
// flight and another live worker available — one speculative attempt.
// The first decisive result (verified payload or terminal deterministic
// failure) wins and cancels the other side. Integrity violations
// quarantine the offender (inside attempt) and the race keeps waiting for
// the surviving side.
func (c *coord) runCell(ctx context.Context, w int, cell string) attemptResult {
	delay, hedging := c.hedgeDelay()
	if !hedging {
		return c.attempt(ctx, w, cell)
	}

	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan attemptResult, 2)
	go func() { results <- c.attempt(actx, w, cell) }()
	timer := time.NewTimer(delay)
	defer timer.Stop()

	inflight := 1
	launched := false
	var fallback *attemptResult
	for inflight > 0 {
		select {
		case <-timer.C:
			if launched {
				continue
			}
			v := c.queue.peer(w)
			if v < 0 {
				continue // no second worker; keep waiting on the primary
			}
			launched = true
			inflight++
			c.hedgeLaunched.Inc()
			c.cfg.Logf("fleet: hedging cell %q: worker %d straggling past %v, racing worker %d", cell, w, delay, v)
			go func() {
				a := c.attempt(actx, v, cell)
				a.hedge = true
				results <- a
			}()
		case a := <-results:
			inflight--
			switch a.kind {
			case attemptOK, attemptTerminal:
				if a.hedge {
					c.hedgeWins.Inc()
				}
				if inflight > 0 {
					c.hedgeCancelled.Inc()
					cancel() // cut the loser loose mid-flight
				}
				return a
			case attemptFatal:
				cancel()
				return a
			default:
				// attemptRetry or attemptIntegrity: remember the primary's
				// verdict (it drives the worker loop's strike/retire
				// decision) and wait for whatever is still in flight.
				if !a.hedge || fallback == nil {
					fallback = &a
				}
			}
		}
	}
	if fallback != nil {
		return *fallback
	}
	return attemptResult{kind: attemptRetry, worker: w}
}
