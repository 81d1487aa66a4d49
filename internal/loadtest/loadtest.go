// Package loadtest is an open-loop HTTP load generator for the
// ristretto-serve daemon. Open-loop means the request clock never waits
// for responses: requests fire at the configured rate no matter how slowly
// the server answers, which is the arrival model that actually exposes
// overload behaviour (a closed-loop generator self-throttles exactly when
// the server is drowning and hides the failure mode).
//
// The generator is deliberately honest about its own limits: when the
// in-flight cap is hit, the would-be request is counted as Dropped rather
// than silently delayed, so offered load is always accountable as
// Sent + Dropped. The chaos tests and the CI serve job use the Report to
// assert the daemon sheds (429), degrades (degraded=true) and keeps
// answering health checks at saturation.
package loadtest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"ristretto/internal/telemetry"
)

// Target is one weighted request template in the traffic mix.
type Target struct {
	Name   string // label in the report, e.g. "model"
	Path   string // request path, e.g. "/v1/model"
	Body   string // JSON body
	Weight int    // relative pick probability (>= 1)
	// Bodies, when non-empty, is a set of distinct request bodies for this
	// target; each arrival picks one zipfian-skewed by Config.KeySkew, so a
	// few hot configurations dominate — the cache-hot traffic shape the
	// serving-scale experiments measure. Body is ignored when Bodies is set.
	Bodies []string
}

// Config describes one load run.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8390".
	BaseURL string
	// RPS is the open-loop arrival rate (> 0).
	RPS float64
	// Duration is how long to keep offering load (> 0).
	Duration time.Duration
	// Timeout bounds each request; 0 = 10s.
	Timeout time.Duration
	// MaxInFlight caps concurrent requests; arrivals beyond it are counted
	// as Dropped instead of queued (the clock never blocks). 0 = 1024.
	MaxInFlight int
	// Seed drives the target mix picks (deterministic arrival sequence).
	Seed int64
	// Targets is the traffic mix (required, weights >= 1).
	Targets []Target

	// Tenants, when > 0, enables multi-tenant mode: every request carries
	// an X-Tenant header naming one of this many synthetic tenants, picked
	// zipfian-skewed so a few tenants dominate the traffic.
	Tenants int
	// TenantSkew is the zipf s parameter for tenant picks; must be > 1
	// when set. 0 = 1.2 (mild skew).
	TenantSkew float64
	// KeySkew is the zipf s parameter for per-target body picks (see
	// Target.Bodies); must be > 1 when set. 0 = 1.2.
	KeySkew float64
	// BatchFraction is the probability an arrival is tagged
	// "X-Priority: batch" instead of interactive (0..1). Any value > 0
	// enables per-class accounting in the report.
	BatchFraction float64

	// Client overrides the HTTP client (tests); nil builds one from
	// Timeout.
	Client *http.Client
}

// ClassReport is the per-priority-class slice of a multi-tenant run's
// outcome, keyed "interactive" / "batch" in Report.Classes.
type ClassReport struct {
	Sent         int64   `json:"sent"`
	Completed    int64   `json:"completed"`
	OK           int64   `json:"ok"`   // 200s
	Shed         int64   `json:"shed"` // 429s
	QuotaDenied  int64   `json:"quota_denied"`
	Degraded     int64   `json:"degraded"`
	LatencyMSP99 float64 `json:"latency_ms_p99"`

	lat telemetry.Histogram
}

// Report is the outcome of one run.
type Report struct {
	Offered         int64            `json:"offered"` // ticks of the arrival clock
	Sent            int64            `json:"sent"`    // requests actually fired
	Dropped         int64            `json:"dropped"` // arrivals over the in-flight cap
	Completed       int64            `json:"completed"`
	Status          map[string]int64 `json:"status"` // "200" → count
	ByTarget        map[string]int64 `json:"by_target"`
	Degraded        int64            `json:"degraded"`     // 200s flagged degraded=true
	CacheHits       int64            `json:"cache_hits"`   // 200s flagged cached=true
	QuotaDenied     int64            `json:"quota_denied"` // 429s naming an exhausted tenant quota
	TransportErrors int64            `json:"transport_errors"`
	LatencyMSP50    float64          `json:"latency_ms_p50"`
	LatencyMSP95    float64          `json:"latency_ms_p95"`
	LatencyMSP99    float64          `json:"latency_ms_p99"`
	LatencyMSMax    float64          `json:"latency_ms_max"`
	Elapsed         time.Duration    `json:"elapsed_ns"`
	// Classes holds per-priority-class tallies; populated only when the run
	// used multi-tenant mode (Tenants > 0 or BatchFraction > 0).
	Classes map[string]*ClassReport `json:"classes,omitempty"`
}

// String renders the report as an aligned human-readable summary.
func (r *Report) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "offered %d  sent %d  dropped %d  completed %d  transport-errors %d\n",
		r.Offered, r.Sent, r.Dropped, r.Completed, r.TransportErrors)
	codes := make([]string, 0, len(r.Status))
	for c := range r.Status {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		fmt.Fprintf(&b, "  status %s: %d\n", c, r.Status[c])
	}
	names := make([]string, 0, len(r.ByTarget))
	for n := range r.ByTarget {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  target %s: %d\n", n, r.ByTarget[n])
	}
	fmt.Fprintf(&b, "  degraded responses: %d\n", r.Degraded)
	if r.CacheHits > 0 || r.QuotaDenied > 0 {
		fmt.Fprintf(&b, "  cache hits: %d  quota denied: %d\n", r.CacheHits, r.QuotaDenied)
	}
	fmt.Fprintf(&b, "  latency ms: p50=%.1f p95=%.1f p99=%.1f max=%.1f\n",
		r.LatencyMSP50, r.LatencyMSP95, r.LatencyMSP99, r.LatencyMSMax)
	classes := make([]string, 0, len(r.Classes))
	for n := range r.Classes {
		classes = append(classes, n)
	}
	sort.Strings(classes)
	for _, n := range classes {
		c := r.Classes[n]
		fmt.Fprintf(&b, "  class %s: sent %d ok %d shed %d quota-denied %d degraded %d p99=%.1fms\n",
			n, c.Sent, c.OK, c.Shed, c.QuotaDenied, c.Degraded, c.LatencyMSP99)
	}
	return b.String()
}

// respProbe is the minimal success-response shape the generator inspects.
type respProbe struct {
	Degraded bool `json:"degraded"`
	Cached   bool `json:"cached"`
}

// errProbe is the minimal error-envelope shape the generator inspects: a
// 429 naming a tenant in quota was a per-tenant rate denial rather than a
// global queue shed.
type errProbe struct {
	Quota string `json:"quota"`
}

// Run offers cfg.RPS requests per second against cfg.BaseURL for
// cfg.Duration (or until ctx is done) and returns the aggregated report.
// The arrival schedule and target picks are deterministic in cfg.Seed; the
// outcomes of course are not.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("loadtest: BaseURL required")
	}
	if cfg.RPS <= 0 {
		return nil, fmt.Errorf("loadtest: RPS %v must be > 0", cfg.RPS)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadtest: Duration %v must be > 0", cfg.Duration)
	}
	if len(cfg.Targets) == 0 {
		return nil, errors.New("loadtest: at least one target required")
	}
	totalWeight := 0
	for _, t := range cfg.Targets {
		if t.Weight < 1 {
			return nil, fmt.Errorf("loadtest: target %q weight %d must be >= 1", t.Name, t.Weight)
		}
		totalWeight += t.Weight
	}
	if cfg.TenantSkew == 0 {
		cfg.TenantSkew = 1.2
	}
	if cfg.KeySkew == 0 {
		cfg.KeySkew = 1.2
	}
	if cfg.TenantSkew <= 1 {
		return nil, fmt.Errorf("loadtest: TenantSkew %v must be > 1 (zipf s parameter)", cfg.TenantSkew)
	}
	if cfg.KeySkew <= 1 {
		return nil, fmt.Errorf("loadtest: KeySkew %v must be > 1 (zipf s parameter)", cfg.KeySkew)
	}
	if cfg.BatchFraction < 0 || cfg.BatchFraction > 1 {
		return nil, fmt.Errorf("loadtest: BatchFraction %v must be in [0, 1]", cfg.BatchFraction)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 1024
	}
	client := cfg.Client
	if client == nil {
		// The default transport keeps only 2 idle connections per host, so
		// at serving-scale rates the generator would reconnect on nearly
		// every request and throttle itself on connection setup — measuring
		// its own TCP churn instead of the server. Size the idle pool to the
		// in-flight cap so connections are reused across the whole run.
		client = &http.Client{
			Timeout: cfg.Timeout,
			Transport: &http.Transport{
				MaxIdleConns:        cfg.MaxInFlight,
				MaxIdleConnsPerHost: cfg.MaxInFlight,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	multiTenant := cfg.Tenants > 0 || cfg.BatchFraction > 0

	rep := &Report{Status: map[string]int64{}, ByTarget: map[string]int64{}}
	if multiTenant {
		// Pre-created so fire goroutines never mutate the map itself.
		rep.Classes = map[string]*ClassReport{
			"interactive": {},
			"batch":       {},
		}
	}
	var mu sync.Mutex // guards rep maps and scalar tallies
	var lat telemetry.Histogram
	var wg sync.WaitGroup
	inflight := make(chan struct{}, cfg.MaxInFlight)
	rng := rand.New(rand.NewSource(cfg.Seed))

	// All random picks happen on the clock goroutine, so the arrival
	// sequence — targets, bodies, tenants, classes — is deterministic in
	// Seed.
	var tenantZipf *rand.Zipf
	if cfg.Tenants > 1 {
		tenantZipf = rand.NewZipf(rng, cfg.TenantSkew, 1, uint64(cfg.Tenants-1))
	}
	keyZipf := map[string]*rand.Zipf{}
	for i := range cfg.Targets {
		if n := len(cfg.Targets[i].Bodies); n > 1 {
			keyZipf[cfg.Targets[i].Name] = rand.NewZipf(rng, cfg.KeySkew, 1, uint64(n-1))
		}
	}

	pick := func() *Target {
		w := rng.Intn(totalWeight)
		for i := range cfg.Targets {
			if w -= cfg.Targets[i].Weight; w < 0 {
				return &cfg.Targets[i]
			}
		}
		return &cfg.Targets[len(cfg.Targets)-1]
	}
	pickBody := func(t *Target) string {
		if len(t.Bodies) == 0 {
			return t.Body
		}
		if z := keyZipf[t.Name]; z != nil {
			return t.Bodies[z.Uint64()]
		}
		return t.Bodies[0]
	}
	pickTenant := func() string {
		if cfg.Tenants <= 0 {
			return ""
		}
		idx := uint64(0)
		if tenantZipf != nil {
			idx = tenantZipf.Uint64()
		}
		return "tenant-" + strconv.FormatUint(idx, 10)
	}
	pickClass := func() string {
		if !multiTenant {
			return ""
		}
		if cfg.BatchFraction > 0 && rng.Float64() < cfg.BatchFraction {
			return "batch"
		}
		return "interactive"
	}

	fire := func(t *Target, body, tenant, class string) {
		defer wg.Done()
		defer func() { <-inflight }()
		start := time.Now()
		req, err := http.NewRequest(http.MethodPost, cfg.BaseURL+t.Path, bytes.NewReader([]byte(body)))
		if err != nil {
			mu.Lock()
			rep.TransportErrors++
			mu.Unlock()
			return
		}
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		if class != "" {
			req.Header.Set("X-Priority", class)
		}
		resp, err := client.Do(req)
		elapsed := time.Since(start)
		mu.Lock()
		defer mu.Unlock()
		rep.Completed++
		cr := rep.Classes[class] // nil when not multi-tenant
		if cr != nil {
			cr.Completed++
		}
		if err != nil {
			rep.TransportErrors++
			return
		}
		defer resp.Body.Close()
		body2, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		lat.Observe(elapsed.Nanoseconds())
		if cr != nil {
			cr.lat.Observe(elapsed.Nanoseconds())
		}
		rep.Status[strconv.Itoa(resp.StatusCode)]++
		rep.ByTarget[t.Name]++
		switch resp.StatusCode {
		case http.StatusOK:
			if cr != nil {
				cr.OK++
			}
			var p respProbe
			if json.Unmarshal(body2, &p) == nil {
				if p.Degraded {
					rep.Degraded++
					if cr != nil {
						cr.Degraded++
					}
				}
				if p.Cached {
					rep.CacheHits++
				}
			}
		case http.StatusTooManyRequests:
			if cr != nil {
				cr.Shed++
			}
			var p errProbe
			if json.Unmarshal(body2, &p) == nil && p.Quota != "" {
				rep.QuotaDenied++
				if cr != nil {
					cr.QuotaDenied++
				}
			}
		}
	}

	interval := time.Duration(float64(time.Second) / cfg.RPS)
	if interval <= 0 {
		interval = time.Microsecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.NewTimer(cfg.Duration)
	defer deadline.Stop()
	startAll := time.Now()

loop:
	for {
		select {
		case <-ctx.Done():
			break loop
		case <-deadline.C:
			break loop
		case <-ticker.C:
			rep.Offered++
			t := pick()
			body := pickBody(t)
			tenant := pickTenant()
			class := pickClass()
			select {
			case inflight <- struct{}{}:
				rep.Sent++
				if cr := rep.Classes[class]; cr != nil {
					cr.Sent++
				}
				wg.Add(1)
				go fire(t, body, tenant, class)
			default:
				rep.Dropped++ // open loop: never block the clock
			}
		}
	}
	wg.Wait()
	rep.Elapsed = time.Since(startAll)
	rep.LatencyMSP50 = lat.Quantile(0.50) / 1e6
	rep.LatencyMSP95 = lat.Quantile(0.95) / 1e6
	rep.LatencyMSP99 = lat.Quantile(0.99) / 1e6
	rep.LatencyMSMax = float64(lat.Summary().Max) / 1e6
	for _, cr := range rep.Classes {
		cr.LatencyMSP99 = cr.lat.Quantile(0.99) / 1e6
	}
	return rep, nil
}

// DefaultMix builds the standard traffic mix against the daemon for the
// given workload parameters. Weights: mostly cheap model queries, a
// sprinkle of expensive sims, some quant sweeps and conformance probes —
// roughly the shape a fleet of analysis dashboards would generate.
func DefaultMix(net, layer, precision string, scale int, seed int64) []Target {
	simPrecision := precision
	if _, ok := map[string]bool{"8b": true, "4b": true, "2b": true}[precision]; !ok {
		simPrecision = "4b" // sim is uniform-precision only
	}
	return []Target{
		{Name: "model", Path: "/v1/model", Weight: 6,
			Body: fmt.Sprintf(`{"net":%q,"precision":%q,"scale":%d,"seed":%d}`, net, precision, scale, seed)},
		{Name: "sim", Path: "/v1/sim", Weight: 1,
			Body: fmt.Sprintf(`{"net":%q,"layer":%q,"precision":%q,"scale":%d,"seed":%d}`, net, layer, simPrecision, scale, seed)},
		{Name: "quant", Path: "/v1/quant", Weight: 2,
			Body: fmt.Sprintf(`{"bits":[8,4,2],"n":50000,"seed":%d}`, seed)},
		{Name: "conformance", Path: "/v1/conformance", Weight: 1,
			Body: fmt.Sprintf(`{"engine":"csc","cases":5,"seed":%d}`, seed)},
	}
}

// MultiKeyMix is DefaultMix expanded to keys distinct request bodies per
// target — the bodies differ only in seed (seed .. seed+keys-1), so each is
// a distinct cache key with identical cost. Combined with Config.KeySkew
// this produces the zipfian hot-key traffic the serving-scale experiments
// measure: a handful of hot configurations served from cache, a long cold
// tail exercising the compute path.
func MultiKeyMix(net, layer, precision string, scale int, seed int64, keys int) []Target {
	if keys < 1 {
		keys = 1
	}
	base := DefaultMix(net, layer, precision, scale, seed)
	for i := range base {
		bodies := make([]string, keys)
		for k := 0; k < keys; k++ {
			bodies[k] = DefaultMix(net, layer, precision, scale, seed+int64(k))[i].Body
		}
		base[i].Bodies = bodies
	}
	return base
}
