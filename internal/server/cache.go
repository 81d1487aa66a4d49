package server

// This file holds the serving-scale memoization layer: a content-keyed
// LRU + singleflight cache (Server.memo, an internal/memo cache) over the
// pure-function endpoints (/v1/model, /v1/sim and /v1/quant are
// deterministic functions of their canonicalized request).
// A hit bypasses the entire compute envelope — no admission slot, no
// queue, no engine — and is served in microseconds from the stored
// response; a miss elects exactly one leader to compute while concurrent
// identical requests wait on the in-flight result (inflight dedup), so a
// thundering herd of one hot configuration costs one computation.
//
// The cache stores the pristine response value (envelope fields zeroed);
// every serve path works on a shallow clone, so memoized payloads are
// byte-identical to cold-path payloads modulo the two documented volatile
// envelope fields (cached, elapsed_ms) — enforced by TestMemoBitExact.

import (
	"context"
	"errors"
	"net/http"
	"time"
)

// memoizable is implemented by response types the cache can store:
// memoClone returns a shallow copy safe to stamp per-request envelope
// fields on without mutating the cached original. Payload fields are never
// mutated after construction, so sharing slices between clones is safe.
// degraded reports a breaker-degraded (analytic) answer, which is served
// but never stored.
type memoizable interface {
	memoClone(cached bool) memoizable
	degraded() bool
}

// degradedAnswer carries a degraded answer out of a memo fill as an error,
// so the memo stores nothing and the fill's joiners see what it was.
type degradedAnswer struct{ v memoizable }

func (*degradedAnswer) Error() string { return "degraded answer" }

// serveMemoized answers a pure-function request through the memo cache:
// hits are served from the stored pristine value in microseconds without
// touching admission; a miss elects one leader through the full compute
// envelope while concurrent identical requests join its fill, each waiting
// under its own deadline. A degraded answer is served but never stored,
// and a joiner takes no outcome that belongs to the leader's envelope
// (leaderOnly; memo.Cache.Do makes it retry on its own instead).
func (s *Server) serveMemoized(w http.ResponseWriter, r *http.Request, ep string, tc tenantCtx, deadlineMS int64, key string, work func(ctx context.Context) (any, error)) {
	if s.memo == nil {
		s.execute(w, r, ep, tc, deadlineMS, work)
		return
	}
	start := time.Now()
	if v, ok := s.memo.Get(key); ok {
		s.finish(w, ep, tc, start, v.memoClone(true))
		return
	}
	// The deadline bounds only a wait on another request's fill; the
	// leader's own compute arms its deadline inside the envelope.
	ctx, cancel := context.WithTimeout(r.Context(), s.resolveDeadline(deadlineMS))
	defer cancel()
	v, shared, err := s.memo.Do(ctx, key, func() (memoizable, error) {
		res, aerr := s.compute(r, tc, deadlineMS, nil, work)
		if aerr != nil {
			return nil, aerr
		}
		v := res.(memoizable).memoClone(false)
		if v.degraded() {
			return nil, &degradedAnswer{v}
		}
		return v, nil
	}, s.leaderOnly(tc.class))
	var deg *degradedAnswer
	switch {
	case err == nil:
		s.finish(w, ep, tc, start, v.memoClone(shared))
	case errors.As(err, &deg):
		s.finish(w, ep, tc, start, deg.v.memoClone(shared))
	default:
		s.fail(w, ep, s.joinError(err))
	}
}

// leaderOnly is the fillerOnly test of memo.Cache.Do and cellcache.Do for
// a joiner of class: an apiError marked own, or a degraded answer class
// would not get, belongs to the leader alone.
func (s *Server) leaderOnly(class priorityClass) func(error) bool {
	return func(err error) bool {
		var deg *degradedAnswer
		var aerr *apiError
		switch {
		case errors.As(err, &deg):
			return !s.brk.degrade(class)
		case errors.As(err, &aerr):
			return aerr.own
		}
		return false
	}
}

// joinError maps the error of a singleflight Do to its answer: the fill's
// apiError, or a 504 or 503 when the request's own deadline or client
// ended its wait on another request's fill.
func (s *Server) joinError(err error) *apiError {
	var aerr *apiError
	switch {
	case errors.As(err, &aerr):
		return aerr
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Inc()
		return &apiError{Status: http.StatusGatewayTimeout, Msg: "deadline exceeded"}
	}
	return &apiError{Status: http.StatusServiceUnavailable, Msg: "client went away", RetryAfter: 1}
}
