package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"ristretto/internal/accel"
	"ristretto/internal/balance"
	"ristretto/internal/conformance"
	"ristretto/internal/experiments"
	"ristretto/internal/model"
	"ristretto/internal/runner"
)

// apiError is a failure with an HTTP status. Handlers and the compute
// functions return it for client-caused failures (validation, unknown
// resources); everything else maps to 500/503/504 in the execute envelope.
type apiError struct {
	Status     int                   `json:"status"`
	Msg        string                `json:"error"`
	Quota      string                `json:"quota,omitempty"` // tenant whose token bucket was empty (429s only)
	RetryAfter int                   `json:"-"`               // seconds; > 0 emits a Retry-After header
	CellError  *runner.WireCellError `json:"cell_error,omitempty"`
	own        bool                  // the request's own shed, deadline or cancellation (see compute)
}

func (e *apiError) Error() string { return e.Msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{Status: http.StatusBadRequest, Msg: fmt.Sprintf(format, args...)}
}

func checkEnum(field, val string, allowed []string) *apiError {
	for _, a := range allowed {
		if val == a {
			return nil
		}
	}
	return badRequest("invalid %s %q (allowed: %s)", field, val, strings.Join(allowed, ", "))
}

// ModelRequest asks the analytic model for a full-network latency/energy
// estimate — the cheap rung of the degradation ladder, also served directly.
type ModelRequest struct {
	Net        string `json:"net"`
	Precision  string `json:"precision"`
	Accel      string `json:"accel"`
	Tiles      int    `json:"tiles"`
	Mults      int    `json:"mults"`
	Gran       int    `json:"gran"`
	Balance    string `json:"balance"`
	Seed       int64  `json:"seed"`
	Scale      int    `json:"scale"`
	DeadlineMS int64  `json:"deadline_ms"`
}

func (r *ModelRequest) validate(cfg *Config) *apiError {
	if r.Net == "" {
		r.Net = "ResNet-18"
	}
	if r.Precision == "" {
		r.Precision = "4b"
	}
	if r.Accel == "" {
		r.Accel = "ristretto"
	}
	applyShapeDefaults(&r.Tiles, &r.Mults, &r.Gran, &r.Balance)
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Scale == 0 {
		r.Scale = cfg.DefaultScale
	}
	if _, err := model.ByName(r.Net); err != nil {
		return badRequest("%v", err)
	}
	if err := checkEnum("precision", r.Precision, experiments.PrecisionNames); err != nil {
		return err
	}
	if err := checkEnum("accel", r.Accel, accel.Names()); err != nil {
		return err
	}
	return validateShape(r.Tiles, r.Mults, r.Gran, r.Balance, r.Scale)
}

// memoKey canonicalizes a validated model request into its cache identity:
// every result-affecting field (defaults already applied by validate), with
// the deadline — a pure execution bound — excluded.
func (r *ModelRequest) memoKey() string {
	c := *r
	c.DeadlineMS = 0
	b, _ := json.Marshal(c)
	return "model|" + string(b)
}

// SimRequest asks the cycle-accurate whole-core simulator for one layer —
// the expensive rung. When the circuit breaker is open it is answered by the
// analytic model instead, flagged degraded.
type SimRequest struct {
	Net        string `json:"net"`
	Layer      string `json:"layer"`
	Precision  string `json:"precision"`
	Tiles      int    `json:"tiles"`
	Mults      int    `json:"mults"`
	Gran       int    `json:"gran"`
	Balance    string `json:"balance"`
	TileW      int    `json:"tile_w"`
	TileH      int    `json:"tile_h"`
	Seed       int64  `json:"seed"`
	Scale      int    `json:"scale"`
	DeadlineMS int64  `json:"deadline_ms"`
}

func (r *SimRequest) validate(cfg *Config) *apiError {
	if r.Net == "" {
		r.Net = "ResNet-18"
	}
	if r.Layer == "" {
		r.Layer = "conv3_2"
	}
	if r.Precision == "" {
		r.Precision = "4b"
	}
	applyShapeDefaults(&r.Tiles, &r.Mults, &r.Gran, &r.Balance)
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Scale == 0 {
		r.Scale = cfg.DefaultScale
	}
	if _, ok := precisionBits(r.Precision); !ok {
		return badRequest("invalid precision %q (allowed: 8b, 4b, 2b)", r.Precision)
	}
	n, err := model.ByName(r.Net)
	if err != nil {
		return badRequest("%v", err)
	}
	if _, err := n.Layer(r.Layer); err != nil {
		return badRequest("%v", err)
	}
	if r.TileW < 0 || r.TileW > 1024 || r.TileH < 0 || r.TileH > 1024 {
		return badRequest("invalid tile_w/tile_h %d/%d (allowed: 0..1024)", r.TileW, r.TileH)
	}
	if aerr := validateShape(r.Tiles, r.Mults, r.Gran, r.Balance, r.Scale); aerr != nil {
		return aerr
	}
	// Bound the simulated workload size so one request cannot pin a worker
	// slot for minutes: the scaled layer's operand volume is the cheap proxy.
	l := scaledLayer(r.Seed, r.Scale, n, r.Layer)
	if vol := l.Activations() + l.Weights(); vol > cfg.MaxSimValues {
		return badRequest("layer %s at scale %d has %d operand values, over the per-request cap %d; raise scale",
			r.Layer, r.Scale, vol, cfg.MaxSimValues)
	}
	return nil
}

// memoKey canonicalizes a validated sim request into its cache identity
// (deadline excluded; the simulation is a pure function of the rest).
func (r *SimRequest) memoKey() string {
	c := *r
	c.DeadlineMS = 0
	b, _ := json.Marshal(c)
	return "sim|" + string(b)
}

// precisionBits maps the uniform precision names to bit-widths.
func precisionBits(p string) (int, bool) {
	bits, ok := map[string]int{"8b": 8, "4b": 4, "2b": 2}[p]
	return bits, ok
}

// applyShapeDefaults fills the shared accelerator-shape defaults.
func applyShapeDefaults(tiles, mults, gran *int, bal *string) {
	if *tiles == 0 {
		*tiles = 8
	}
	if *mults == 0 {
		*mults = 32
	}
	if *gran == 0 {
		*gran = 2
	}
	if *bal == "" {
		*bal = "wa"
	}
}

func validateShape(tiles, mults, gran int, bal string, scale int) *apiError {
	if tiles < 1 || tiles > 1024 {
		return badRequest("invalid tiles %d (allowed: 1..1024)", tiles)
	}
	if mults < 1 || mults > 1024 {
		return badRequest("invalid mults %d (allowed: 1..1024)", mults)
	}
	if gran < 1 || gran > 3 {
		return badRequest("invalid gran %d (allowed: 1, 2, 3)", gran)
	}
	if err := checkEnum("balance", bal, balance.PolicyNames); err != nil {
		return err
	}
	if scale < 1 || scale > 1024 {
		return badRequest("invalid scale %d (allowed: 1..1024)", scale)
	}
	return nil
}

// QuantRequest runs the Figure-1 style statistical quantization sweep.
type QuantRequest struct {
	Bits       []int   `json:"bits"`
	N          int     `json:"n"`
	Gran       int     `json:"gran"`
	Seed       int64   `json:"seed"`
	PruneW     float64 `json:"prune_w"`
	PruneA     float64 `json:"prune_a"`
	DeadlineMS int64   `json:"deadline_ms"`
}

func (r *QuantRequest) validate(cfg *Config) *apiError {
	if len(r.Bits) == 0 {
		r.Bits = []int{8, 6, 4, 2}
	}
	if r.N == 0 {
		r.N = 100_000
	}
	if r.Gran == 0 {
		r.Gran = 2
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if len(r.Bits) > 8 {
		return badRequest("too many bit-widths (%d, max 8)", len(r.Bits))
	}
	for _, b := range r.Bits {
		if b < 2 || b > 8 {
			return badRequest("invalid bits %d (allowed: 2..8)", b)
		}
	}
	if r.N < 1 || int64(r.N) > cfg.MaxQuantSamples {
		return badRequest("invalid n %d (allowed: 1..%d)", r.N, cfg.MaxQuantSamples)
	}
	if r.Gran < 1 || r.Gran > 3 {
		return badRequest("invalid gran %d (allowed: 1, 2, 3)", r.Gran)
	}
	if r.PruneW < 0 || r.PruneW > 1 || r.PruneA < 0 || r.PruneA > 1 {
		return badRequest("invalid prune_w/prune_a %v/%v (allowed: [0,1])", r.PruneW, r.PruneA)
	}
	return nil
}

// memoKey canonicalizes a validated quant request into its cache identity
// (deadline excluded; the sweep is a pure function of the rest).
func (r *QuantRequest) memoKey() string {
	c := *r
	c.DeadlineMS = 0
	b, _ := json.Marshal(c)
	return "quant|" + string(b)
}

// ConformanceRequest spot-checks one engine (or all) against the dense
// reference convolution over the seeded differential sweep.
type ConformanceRequest struct {
	Engine     string `json:"engine"` // "" or "all" sweeps every registered engine
	Cases      int    `json:"cases"`
	Seed       int64  `json:"seed"`
	DeadlineMS int64  `json:"deadline_ms"`
}

func (r *ConformanceRequest) validate(cfg *Config) *apiError {
	if r.Cases == 0 {
		r.Cases = 10
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Cases < 1 || r.Cases > cfg.MaxConformanceCases {
		return badRequest("invalid cases %d (allowed: 1..%d)", r.Cases, cfg.MaxConformanceCases)
	}
	if r.Engine != "" && r.Engine != "all" {
		if _, ok := conformance.ByName(r.Engine); !ok {
			return badRequest("unknown engine %q (allowed: all, %s)", r.Engine, strings.Join(conformance.Names(), ", "))
		}
	}
	return nil
}

// EnergyPJ is the energy breakdown attached to compute responses.
type EnergyPJ struct {
	ComputePJ float64 `json:"compute_pj"`
	OnChipPJ  float64 `json:"onchip_pj"`
	DRAMPJ    float64 `json:"dram_pj"`
	TotalPJ   float64 `json:"total_pj"`
}

// ModelResponse answers /v1/model.
type ModelResponse struct {
	Net       string   `json:"net"`
	Accel     string   `json:"accel"`
	Precision string   `json:"precision"`
	Layers    int      `json:"layers"`
	MACs      int64    `json:"macs"`
	Cycles    int64    `json:"cycles"`
	MS        float64  `json:"ms_at_500mhz"`
	Energy    EnergyPJ `json:"energy"`
	DRAMBytes int64    `json:"dram_bytes"`
	Engine    string   `json:"engine"` // always "analytic"
	Degraded  bool     `json:"degraded"`
	Cached    bool     `json:"cached,omitempty"` // served from the memo cache
	ElapsedMS float64  `json:"elapsed_ms"`
}

// SimResponse answers /v1/sim. Engine distinguishes the cycle-accurate
// answer ("core-sim") from a breaker-degraded analytic one ("analytic").
type SimResponse struct {
	Net         string   `json:"net"`
	Layer       string   `json:"layer"`
	Precision   string   `json:"precision"`
	Cycles      int64    `json:"cycles"`
	Utilization float64  `json:"utilization"`
	DrainWait   int64    `json:"drain_wait,omitempty"`
	LoadCycles  int64    `json:"load_cycles,omitempty"`
	Stalls      int64    `json:"stalls,omitempty"`
	Conflicts   int64    `json:"conflicts,omitempty"`
	Energy      EnergyPJ `json:"energy"`
	Engine      string   `json:"engine"`
	Degraded    bool     `json:"degraded"`
	Cached      bool     `json:"cached,omitempty"` // served from the memo cache
	ElapsedMS   float64  `json:"elapsed_ms"`
}

// QuantStats is one operand population's sparsity measurement.
type QuantStats struct {
	ValueDensity float64 `json:"value_density"`
	AtomDensity  float64 `json:"atom_density"`
	StreamAtoms  int     `json:"stream_atoms"`
	DenseAtoms   int     `json:"dense_atoms"`
}

// QuantRow is the sweep result at one bit-width.
type QuantRow struct {
	Bits    int        `json:"bits"`
	Weights QuantStats `json:"weights"`
	Acts    QuantStats `json:"acts"`
}

// QuantResponse answers /v1/quant.
type QuantResponse struct {
	N         int        `json:"n"`
	Gran      int        `json:"gran"`
	Rows      []QuantRow `json:"rows"`
	Degraded  bool       `json:"degraded"`
	Cached    bool       `json:"cached,omitempty"` // served from the memo cache
	ElapsedMS float64    `json:"elapsed_ms"`
}

// ConformanceReport is one engine's spot-check outcome.
type ConformanceReport struct {
	Engine       string `json:"engine"`
	Analytic     bool   `json:"analytic,omitempty"`
	Cases        int    `json:"cases"`
	Failures     int    `json:"failures"`
	FirstFailure string `json:"first_failure,omitempty"`
}

// ConformanceResponse answers /v1/conformance.
type ConformanceResponse struct {
	OK        bool                `json:"ok"`
	Reports   []ConformanceReport `json:"reports"`
	Degraded  bool                `json:"degraded"`
	ElapsedMS float64             `json:"elapsed_ms"`
}

// elapsedSetter lets the execute envelope stamp the measured wall time onto
// any compute response without knowing its concrete type.
type elapsedSetter interface{ setElapsed(ms float64) }

func (r *ModelResponse) setElapsed(ms float64)       { r.ElapsedMS = ms }
func (r *SimResponse) setElapsed(ms float64)         { r.ElapsedMS = ms }
func (r *QuantResponse) setElapsed(ms float64)       { r.ElapsedMS = ms }
func (r *ConformanceResponse) setElapsed(ms float64) { r.ElapsedMS = ms }

// memoClone implements memoizable: a shallow copy with the volatile
// envelope fields (cached, elapsed_ms) reset, so the cache stores pristine
// payloads and every serve path stamps its own copy. Payload fields are
// never mutated after construction, so sharing Rows between clones is safe.
func (r *ModelResponse) memoClone(cached bool) memoizable {
	c := *r
	c.Cached, c.ElapsedMS = cached, 0
	return &c
}

// memoClone implements memoizable for simulations (see ModelResponse).
func (r *SimResponse) memoClone(cached bool) memoizable {
	c := *r
	c.Cached, c.ElapsedMS = cached, 0
	return &c
}

// memoClone implements memoizable for quant sweeps (see ModelResponse).
func (r *QuantResponse) memoClone(cached bool) memoizable {
	c := *r
	c.Cached, c.ElapsedMS = cached, 0
	return &c
}

func (r *ModelResponse) degraded() bool { return r.Degraded }
func (r *SimResponse) degraded() bool   { return r.Degraded }
func (r *QuantResponse) degraded() bool { return r.Degraded }
