// Package server is the hardened HTTP/JSON serving layer over the
// repository's engines: the analytic performance model, the cycle-accurate
// core simulator, the quantization sweep and the differential conformance
// harness, exposed as request/response endpoints by cmd/ristretto-serve.
//
// The robustness layer wraps every compute endpoint the same way:
//
//   - strict request validation with a body-size limit (unknown fields and
//     out-of-range parameters are 400s, oversized bodies 413s);
//   - multi-tenant QoS: per-tenant token-bucket quotas (X-Tenant) and two
//     priority classes (X-Priority: interactive|batch) — batch traffic is
//     quota-denied, queue-shed and fidelity-degraded before interactive
//     traffic (see tenant.go);
//   - memoization: /v1/model, /v1/sim and /v1/quant are pure functions of
//     their canonicalized request, so hot configurations are answered from
//     a content-keyed LRU + singleflight cache in microseconds without
//     touching the admission queue, and concurrent identical misses
//     compute once (see cache.go); /v1/model misses and /v1/cell read
//     layer statistics from one shared store, so the daemon synthesizes
//     each workload once; /v1/sim misses read the simulator's per-channel
//     pass from a layer store, so requests that differ only in tiles or
//     balance simulate each input channel once;
//   - admission control over a bounded queue — at most MaxConcurrent
//     requests compute, at most MaxQueue wait, everything beyond is shed
//     synchronously with 429 + Retry-After so memory stays bounded at
//     saturation;
//   - per-request deadlines propagated via context and enforced by the
//     runner's per-cell timeout;
//   - per-request panic isolation: the work runs as a one-cell
//     runner.MapCfg call, so a panicking engine (or injected fault) is
//     recovered into a *runner.CellError and answered with 500 while the
//     process stays up;
//   - a circuit breaker watching queue latency: when admitted requests
//     wait longer than the threshold, /v1/sim degrades from the cycle
//     simulator to the analytic model, flagged degraded=true — the paper's
//     own fidelity/throughput trade-off as a load-shedding valve;
//   - graceful drain: StartDrain flips /readyz to 503 and rejects new
//     compute work while in-flight requests finish.
//
// /healthz, /readyz and /metrics are backed by internal/telemetry;
// /metrics reports per-endpoint counters and latency histograms with
// p50/p95/p99, the shed/degrade/panic counters and the queue-depth gauge.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"ristretto/internal/cellcache"
	"ristretto/internal/experiments"
	"ristretto/internal/faultinject"
	"ristretto/internal/memo"
	"ristretto/internal/ristretto"
	"ristretto/internal/runner"
	"ristretto/internal/telemetry"
)

// Config tunes the robustness envelope. The zero value of every field
// selects a production-sane default (see withDefaults).
type Config struct {
	// MaxConcurrent bounds requests computing simultaneously (the worker
	// slots feeding the runner pool). 0 = NumCPU.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a slot; excess load is shed
	// with 429. 0 = 64.
	MaxQueue int
	// DefaultDeadline bounds a request that names no deadline_ms; 0 = 15s.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines; 0 = 2m.
	MaxDeadline time.Duration
	// MaxBodyBytes caps request bodies; 0 = 1 MiB.
	MaxBodyBytes int64
	// BreakerThreshold is the queue wait that opens the degradation
	// breaker; 0 = 250ms. Negative disables degradation.
	BreakerThreshold time.Duration
	// BreakerCooldown is how long the breaker stays open after the last
	// threshold crossing; 0 = 2s.
	BreakerCooldown time.Duration
	// DefaultScale is the spatial scale-down applied when a request names
	// none; 0 = 16 (quick-bench sizing, keeps default requests snappy).
	DefaultScale int
	// MaxSimValues caps the operand volume of one sim request; 0 = 1<<24.
	MaxSimValues int64
	// MaxQuantSamples caps one quant request's population; 0 = 2_000_000.
	MaxQuantSamples int64
	// MaxConformanceCases caps one conformance request's sweep; 0 = 200.
	MaxConformanceCases int
	// CacheEntries bounds the /v1/model + /v1/sim + /v1/quant memo cache
	// (LRU); 0 = 4096. Negative disables memoization and the /v1/sim layer
	// store.
	CacheEntries int
	// BatchQueueShare caps the admission-queue places the batch priority
	// class may occupy, so batch sheds before interactive under mixed
	// overload; 0 = MaxQueue/2 (minimum 1).
	BatchQueueShare int
	// BreakerHardFactor scales BreakerThreshold up to the hard-open level
	// at which even interactive sim requests degrade (batch degrades at
	// the soft level, i.e. BreakerThreshold itself); 0 = 4.
	BreakerHardFactor int
	// TenantRate is each tenant's token-bucket refill in requests/second;
	// 0 disables quotas entirely.
	TenantRate float64
	// TenantBurst is each tenant's bucket capacity; 0 = max(1, TenantRate).
	TenantBurst float64
	// MaxTenants bounds tracked tenant buckets (overflow tenants share one
	// bucket); 0 = 10000.
	MaxTenants int
	// CellCache, when non-nil, fronts the /v1/cell worker endpoint with the
	// fleet's content-addressed result store: repeat and concurrent requests
	// for one cell fingerprint compute once and replay byte-identically.
	CellCache *cellcache.Cache
	// Fault, when non-nil, injects the schedule into request handling:
	// each request is one cell (in arrival order), so seed-deterministic
	// panics/transients/delays exercise the isolation machinery under
	// load. Nil costs nothing.
	Fault *faultinject.Schedule
	// Registry receives the server's metrics; nil = telemetry.Default.
	// New enables it — a serving daemon without metrics is blind.
	Registry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.NumCPU()
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 15 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 250 * time.Millisecond
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.DefaultScale <= 0 {
		c.DefaultScale = 16
	}
	if c.MaxSimValues <= 0 {
		c.MaxSimValues = 1 << 24
	}
	if c.MaxQuantSamples <= 0 {
		c.MaxQuantSamples = 2_000_000
	}
	if c.MaxConformanceCases <= 0 {
		c.MaxConformanceCases = 200
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.BatchQueueShare <= 0 {
		c.BatchQueueShare = c.MaxQueue / 2
		if c.BatchQueueShare < 1 {
			c.BatchQueueShare = 1
		}
	}
	if c.BreakerHardFactor <= 0 {
		c.BreakerHardFactor = 4
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = c.TenantRate
		if c.TenantBurst < 1 {
			c.TenantBurst = 1
		}
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 10_000
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default
	}
	return c
}

// epMetrics are one endpoint's counters and latency histogram, resolved
// once at construction so the request path never touches the registry map.
type epMetrics struct {
	requests *telemetry.Counter
	ok       *telemetry.Counter
	errs     *telemetry.Counter
	latency  *telemetry.Histogram
}

// Server is the daemon's state: the admission gate, the breaker, drain
// status and metric handles. Construct with New; serve via Handler.
type Server struct {
	cfg      Config
	reg      *telemetry.Registry
	adm      *admission
	brk      *breaker
	memo     *memo.Cache[memoizable]           // response memo (server.cache.*); nil when memoization is disabled
	stats    *experiments.StatsStore           // layer statistics shared by /v1/model and /v1/cell
	layers   *memo.Cache[*ristretto.CoreLayer] // /v1/sim layers after the simulator's per-channel pass, keyed by SimRequest.layerKey (server.layers.*); nil when memoization is disabled
	quota    *quotaTable
	class    map[priorityClass]*classMetrics
	fault    func(cell, attempt int) error
	seq      atomic.Int64
	draining atomic.Bool
	started  time.Time
	ep       map[string]*epMetrics

	shed         *telemetry.Counter
	degraded     *telemetry.Counter
	panics       *telemetry.Counter
	timeouts     *telemetry.Counter
	drainRejects *telemetry.Counter
	quotaDenied  *telemetry.Counter
	queueWait    *telemetry.Histogram
	queueDepth   *telemetry.Histogram
	tenants      *telemetry.Gauge
}

// New builds a server from the config and enables its metrics registry.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	r := cfg.Registry
	r.SetEnabled(true)
	s := &Server{
		cfg:     cfg,
		reg:     r,
		adm:     newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.BatchQueueShare),
		brk:     newBreaker(cfg.BreakerThreshold, cfg.BreakerHardFactor, cfg.BreakerCooldown),
		stats:   experiments.NewStatsStore(r, "server.stats"),
		started: time.Now(),
		ep:      map[string]*epMetrics{},
		class:   map[priorityClass]*classMetrics{},

		shed:         r.Counter("server.shed"),
		degraded:     r.Counter("server.degraded"),
		panics:       r.Counter("server.panics_recovered"),
		timeouts:     r.Counter("server.deadline_timeouts"),
		drainRejects: r.Counter("server.drain_rejects"),
		quotaDenied:  r.Counter("server.quota.denied"),
		queueWait:    r.Histogram("server.queue_wait_ns"),
		queueDepth:   r.Histogram("server.queue_depth"),
		tenants:      r.Gauge("server.quota.tenants"),
	}
	for _, ep := range []string{"model", "sim", "quant", "conformance", "cell"} {
		s.ep[ep] = &epMetrics{
			requests: r.Counter("server." + ep + ".requests"),
			ok:       r.Counter("server." + ep + ".ok"),
			errs:     r.Counter("server." + ep + ".errors"),
			latency:  r.Histogram("server." + ep + ".latency_ns"),
		}
	}
	for _, c := range []priorityClass{classInteractive, classBatch} {
		n := c.String()
		s.class[c] = &classMetrics{
			requests: r.Counter("server.class." + n + ".requests"),
			shed:     r.Counter("server.class." + n + ".shed"),
			degraded: r.Counter("server.class." + n + ".degraded"),
			ok:       r.Counter("server.class." + n + ".ok"),
		}
	}
	if cfg.CacheEntries > 0 {
		s.memo = memo.New[memoizable](int64(cfg.CacheEntries), nil, r, "server.cache", "entries")
		s.layers = memo.New(layerBudget, (*ristretto.CoreLayer).Bytes, r, "server.layers", "bytes")
	}
	if cfg.TenantRate > 0 {
		s.quota = newQuotaTable(cfg.TenantRate, cfg.TenantBurst, cfg.MaxTenants)
	}
	if cfg.Fault != nil {
		s.fault = cfg.Fault.Hook()
	}
	return s
}

// Handler returns the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/model", s.handleModel)
	mux.HandleFunc("/v1/sim", s.handleSim)
	mux.HandleFunc("/v1/quant", s.handleQuant)
	mux.HandleFunc("/v1/conformance", s.handleConformance)
	mux.HandleFunc("/v1/cell", s.handleCell)
	return mux
}

// StartDrain begins graceful shutdown: /readyz flips to 503 and new
// compute requests are rejected with 503 + Retry-After, while requests
// already admitted keep running. The HTTP listener itself is closed by the
// caller (http.Server.Shutdown), which also waits for in-flight requests.
func (s *Server) StartDrain() { s.draining.Store(true) }

// QueueDepth reports queued + in-flight compute requests.
func (s *Server) QueueDepth() int64 { return s.adm.depth() }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// MetricsResponse is the /metrics payload: the registry snapshot plus the
// live gauges a scraper cannot derive from counters.
type MetricsResponse struct {
	UptimeSeconds   float64            `json:"uptime_seconds"`
	Draining        bool               `json:"draining"`
	BreakerOpen     bool               `json:"breaker_open"`
	BreakerHardOpen bool               `json:"breaker_hard_open"`
	BreakerTrips    int64              `json:"breaker_trips"`
	BreakerHard     int64              `json:"breaker_hard_trips"`
	QueueDepth      int64              `json:"queue_depth"`
	Inflight        int64              `json:"inflight"`
	CacheEntries    int64              `json:"cache_entries"`
	Snapshot        telemetry.Snapshot `json:"snapshot"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var cacheLen int64
	if s.memo != nil {
		cacheLen = int64(s.memo.Len())
	}
	s.tenants.Set(s.quota.tracked())
	writeJSON(w, http.StatusOK, MetricsResponse{
		UptimeSeconds:   time.Since(s.started).Seconds(),
		Draining:        s.draining.Load(),
		BreakerOpen:     s.brk.open(),
		BreakerHardOpen: s.brk.hardOpen(),
		BreakerTrips:    s.brk.Trips(),
		BreakerHard:     s.brk.HardTrips(),
		QueueDepth:      s.adm.depth(),
		Inflight:        s.adm.Inflight(),
		CacheEntries:    cacheLen,
		Snapshot:        s.reg.Snapshot(),
	})
}

// admitQoS classifies the request's tenant/class and spends a quota token.
// It reports false after writing the error response itself.
func (s *Server) admitQoS(w http.ResponseWriter, r *http.Request, ep string) (tenantCtx, bool) {
	tc, aerr := classify(r)
	if aerr != nil {
		s.fail(w, ep, aerr)
		return tc, false
	}
	s.class[tc.class].requests.Inc()
	if !s.quota.take(tc.tenant) {
		s.quotaDenied.Inc()
		s.fail(w, ep, &apiError{Status: http.StatusTooManyRequests,
			Msg: "tenant quota exhausted", Quota: tc.tenant, RetryAfter: 1})
		return tc, false
	}
	return tc, true
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	var req ModelRequest
	if !s.decode(w, r, "model", &req) {
		return
	}
	if aerr := req.validate(&s.cfg); aerr != nil {
		s.fail(w, "model", aerr)
		return
	}
	tc, ok := s.admitQoS(w, r, "model")
	if !ok {
		return
	}
	s.serveMemoized(w, r, "model", tc, req.DeadlineMS, req.memoKey(), func(ctx context.Context) (any, error) {
		return s.runModel(ctx, &req)
	})
}

func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	var req SimRequest
	if !s.decode(w, r, "sim", &req) {
		return
	}
	if aerr := req.validate(&s.cfg); aerr != nil {
		s.fail(w, "sim", aerr)
		return
	}
	tc, ok := s.admitQoS(w, r, "sim")
	if !ok {
		return
	}
	s.serveMemoized(w, r, "sim", tc, req.DeadlineMS, req.memoKey(), func(ctx context.Context) (any, error) {
		// The breaker is consulted after admission, inside the isolated
		// cell: the queue wait this request just experienced has already
		// been observed, so an overloaded daemon degrades the very request
		// that found the queue slow. Degradation is class-ordered: batch
		// degrades at the soft level, interactive only at the hard level.
		if s.brk.degrade(tc.class) {
			s.degraded.Inc()
			s.class[tc.class].degraded.Inc()
			return s.runSimAnalytic(ctx, &req)
		}
		return s.runSimCore(ctx, &req)
	})
}

func (s *Server) handleQuant(w http.ResponseWriter, r *http.Request) {
	var req QuantRequest
	if !s.decode(w, r, "quant", &req) {
		return
	}
	if aerr := req.validate(&s.cfg); aerr != nil {
		s.fail(w, "quant", aerr)
		return
	}
	tc, ok := s.admitQoS(w, r, "quant")
	if !ok {
		return
	}
	s.serveMemoized(w, r, "quant", tc, req.DeadlineMS, req.memoKey(), func(ctx context.Context) (any, error) {
		return s.runQuant(ctx, &req)
	})
}

func (s *Server) handleConformance(w http.ResponseWriter, r *http.Request) {
	var req ConformanceRequest
	if !s.decode(w, r, "conformance", &req) {
		return
	}
	if aerr := req.validate(&s.cfg); aerr != nil {
		s.fail(w, "conformance", aerr)
		return
	}
	tc, ok := s.admitQoS(w, r, "conformance")
	if !ok {
		return
	}
	s.execute(w, r, "conformance", tc, req.DeadlineMS, func(ctx context.Context) (any, error) {
		return s.runConformance(ctx, &req)
	})
}

// decode enforces method, drain state and the strict body contract; it
// reports false after writing the error response itself.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, ep string, req any) bool {
	em := s.ep[ep]
	em.requests.Inc()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, ep, &apiError{Status: http.StatusMethodNotAllowed, Msg: "use POST"})
		return false
	}
	if s.draining.Load() {
		s.drainRejects.Inc()
		s.fail(w, ep, &apiError{Status: http.StatusServiceUnavailable, Msg: "server is draining", RetryAfter: 1})
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.fail(w, ep, &apiError{Status: http.StatusRequestEntityTooLarge, Msg: fmt.Sprintf("body over %d bytes", mbe.Limit)})
			return false
		}
		s.fail(w, ep, badRequest("bad request body: %v", err))
		return false
	}
	if dec.More() {
		s.fail(w, ep, badRequest("trailing data after request object"))
		return false
	}
	return true
}

// compute runs one validated request through the robustness envelope:
// class-aware admission (shed on overflow), breaker observation, deadline,
// and the one-cell runner call that isolates panics and enforces the
// timeout. It returns the computed value or the failure to answer with,
// marked own when it is the request's shed, deadline or cancellation.
// seedFn, when non-nil, derives the replay seed recorded on envelope-level
// cell failures (the /v1/cell endpoint passes the experiment-suite
// derivation so remote failures replay locally); nil leaves it zero.
func (s *Server) compute(r *http.Request, tc tenantCtx, deadlineMS int64, seedFn func(int) int64, work func(ctx context.Context) (any, error)) (any, *apiError) {
	release, wait, err := s.adm.admit(r.Context(), tc.class)
	s.queueDepth.Observe(s.adm.depth())
	switch {
	case errors.Is(err, errShed):
		s.shed.Inc()
		s.class[tc.class].shed.Inc()
		return nil, &apiError{Status: http.StatusTooManyRequests, Msg: "overloaded: queue full", RetryAfter: 1, own: true}
	case err != nil: // client gave up while queued
		return nil, &apiError{Status: http.StatusServiceUnavailable, Msg: "request cancelled while queued", RetryAfter: 1, own: true}
	}
	defer release()
	s.queueWait.Observe(wait.Nanoseconds())
	s.brk.observe(wait)

	d := s.resolveDeadline(deadlineMS)
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()

	cfg := runner.Cfg{Timeout: d, Seed: seedFn}
	if s.fault != nil {
		cell := int(s.seq.Add(1))
		cfg.Fault = func(_, attempt int) error { return s.fault(cell, attempt) }
	}
	res, rerr := runner.MapCfg(ctx, runner.Serial(), cfg, 1, func(int) (any, error) {
		return work(ctx)
	})
	if rerr != nil {
		aerr := s.classify(rerr)
		aerr.own = ctx.Err() != nil || errors.Is(rerr, runner.ErrCellTimeout)
		return nil, aerr
	}
	return res[0], nil
}

// finish stamps the envelope fields and writes a successful response.
func (s *Server) finish(w http.ResponseWriter, ep string, tc tenantCtx, start time.Time, res any) {
	em := s.ep[ep]
	em.ok.Inc()
	s.class[tc.class].ok.Inc()
	elapsed := time.Since(start)
	em.latency.Observe(elapsed.Nanoseconds())
	if es, ok := res.(elapsedSetter); ok {
		es.setElapsed(float64(elapsed.Nanoseconds()) / 1e6)
	}
	writeJSON(w, http.StatusOK, res)
}

// execute is the cold, uncached request path: compute inside the envelope,
// then answer.
func (s *Server) execute(w http.ResponseWriter, r *http.Request, ep string, tc tenantCtx, deadlineMS int64, work func(ctx context.Context) (any, error)) {
	start := time.Now()
	res, aerr := s.compute(r, tc, deadlineMS, nil, work)
	if aerr != nil {
		s.fail(w, ep, aerr)
		return
	}
	s.finish(w, ep, tc, start, res)
}

// resolveDeadline maps a request's deadline_ms to the effective wall-clock
// bound: the server default when unset, capped at MaxDeadline.
func (s *Server) resolveDeadline(deadlineMS int64) time.Duration {
	d := s.cfg.DefaultDeadline
	if deadlineMS > 0 {
		d = time.Duration(deadlineMS) * time.Millisecond
		if d > s.cfg.MaxDeadline {
			d = s.cfg.MaxDeadline
		}
	}
	return d
}

// classify maps a runner failure to its HTTP shape: recovered panics are
// 500s (the request died, the process did not), deadline expiries 504s,
// injected transients 503s, apiErrors pass through, anything else 500.
// Classification uses the deepest CellError in the chain — the /v1/cell
// endpoint nests an experiment-level cell inside the request envelope's,
// and the inner one carries the stack/timeout evidence and replay seed.
// That CellError also rides along in wire form so remote callers (the
// fleet coordinator) can reconstruct the failure locally.
func (s *Server) classify(err error) *apiError {
	if ce := deepestCellError(err); ce != nil {
		wire := ce.Wire("")
		switch {
		case ce.Stack != nil:
			s.panics.Inc()
			log.Printf("server: recovered request panic: %v\n%s", ce.Err, ce.Stack)
			return &apiError{Status: http.StatusInternalServerError, Msg: "internal error: request panicked (isolated; see server log)", CellError: wire}
		case ce.TimedOut || errors.Is(ce.Err, context.DeadlineExceeded): // the context may beat the runner's timer
			s.timeouts.Inc()
			return &apiError{Status: http.StatusGatewayTimeout, Msg: "deadline exceeded", CellError: wire}
		case faultinject.IsTransient(ce.Err):
			return &apiError{Status: http.StatusServiceUnavailable, Msg: "transient fault, retry", RetryAfter: 1, CellError: wire}
		}
		var ae *apiError
		if errors.As(ce.Err, &ae) {
			return ae
		}
		return &apiError{Status: http.StatusInternalServerError, Msg: ce.Err.Error(), CellError: wire}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		s.timeouts.Inc()
		return &apiError{Status: http.StatusGatewayTimeout, Msg: "deadline exceeded"}
	}
	return &apiError{Status: http.StatusServiceUnavailable, Msg: err.Error(), RetryAfter: 1}
}

// deepestCellError walks the unwrap chain to the innermost *CellError.
// Nested MapCfg calls (request envelope around an experiment cell) each
// wrap one; the innermost carries the original failure's evidence.
func deepestCellError(err error) *runner.CellError {
	var last *runner.CellError
	for {
		var ce *runner.CellError
		if !errors.As(err, &ce) || ce == last {
			return last
		}
		last = ce
		err = ce.Err
	}
}

// fail writes an error response and bumps the endpoint's error counter.
func (s *Server) fail(w http.ResponseWriter, ep string, aerr *apiError) {
	if em, ok := s.ep[ep]; ok {
		em.errs.Inc()
	}
	if aerr.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(aerr.RetryAfter))
	}
	writeJSON(w, aerr.Status, aerr)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
