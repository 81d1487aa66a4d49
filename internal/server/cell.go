package server

// /v1/cell is the fleet worker surface: the distributed-sweep coordinator
// (internal/fleet) posts one sweep cell at a time, and the worker answers
// with the cell's journal payload — the exact JSON a checkpointed serial
// run records for that key, so merged fleet output is byte-identical to a
// local run. Failures cross the wire as runner.WireCellError inside the
// error body, carrying the replay seed and panic evidence the coordinator
// needs to reproduce the failure locally. An optional content-addressed
// cellcache (Config.CellCache) fronts the endpoint so repeated or
// concurrent requests for one fingerprint compute once.

import (
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"time"

	"ristretto/internal/experiments"
	"ristretto/internal/model"
	"ristretto/internal/workload"
)

// CellRequest asks the worker to execute one sweep cell of the experiment
// suite under a workload configuration. Identical requests are pure
// functions: the response payload is bit-identical across processes and
// machines, which is what makes the result cacheable by fingerprint.
type CellRequest struct {
	Seed       int64    `json:"seed"`
	Scale      int      `json:"scale"`
	Nets       []string `json:"nets,omitempty"` // nil = full benchmark
	Cell       string   `json:"cell"`
	DeadlineMS int64    `json:"deadline_ms"`
}

func (r *CellRequest) validate(cfg *Config) *apiError {
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Scale == 0 {
		r.Scale = cfg.DefaultScale
	}
	if r.Scale < 1 || r.Scale > 1024 {
		return badRequest("invalid scale %d (allowed: 1..1024)", r.Scale)
	}
	if r.Cell == "" {
		return badRequest("missing cell (allowed: %v)", experiments.CellKeys())
	}
	if !slices.Contains(experiments.CellKeys(), r.Cell) {
		return badRequest("unknown cell %q (allowed: %v)", r.Cell, experiments.CellKeys())
	}
	for _, n := range r.Nets {
		if _, err := model.ByName(n); err != nil {
			return badRequest("%v", err)
		}
	}
	return nil
}

// spec returns the cell identity this request computes — the fingerprint
// the cache stores the payload under.
func (r *CellRequest) spec() experiments.CellSpec {
	return experiments.CellSpec{Seed: r.Seed, Scale: r.Scale, Nets: r.Nets, Cell: r.Cell}
}

// CellResponse answers /v1/cell with the cell's journal payload. Payload
// bytes are the cache/merge currency: the coordinator never re-encodes
// them, so what the worker computed is what the manifest decodes.
// PayloadSHA256 is the end-to-end integrity digest
// (experiments.CellPayloadDigest over the fingerprint and the payload
// bytes): the coordinator recomputes it before the payload may enter the
// merge or a cache, so a response corrupted in flight — or a worker whose
// stamped digest does not match its own payload — is quarantined instead
// of silently merged.
type CellResponse struct {
	Cell          string          `json:"cell"`
	Fingerprint   string          `json:"fingerprint"`
	Payload       json.RawMessage `json:"payload"`
	PayloadSHA256 string          `json:"payload_sha256"`
	Cached        bool            `json:"cached,omitempty"` // served from the cell cache
	ElapsedMS     float64         `json:"elapsed_ms"`
}

func (r *CellResponse) setElapsed(ms float64) { r.ElapsedMS = ms }

func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	var req CellRequest
	if !s.decode(w, r, "cell", &req) {
		return
	}
	if aerr := req.validate(&s.cfg); aerr != nil {
		s.fail(w, "cell", aerr)
		return
	}
	tc, ok := s.admitQoS(w, r, "cell")
	if !ok {
		return
	}
	start := time.Now()
	fp := req.spec().Fingerprint()
	// The outer compute envelope derives the same replay seed AllChecked
	// would for this cell, so even a fault injected before the experiment
	// code runs (the envelope's own hook) reports a seed that replays the
	// right cell locally.
	seedFn := func(int) int64 { return workload.DeriveSeed(req.Seed, "job", req.Cell) }
	run := func() ([]byte, error) {
		res, aerr := s.compute(r, tc, req.DeadlineMS, seedFn, func(ctx context.Context) (any, error) {
			return s.runCell(ctx, &req)
		})
		if aerr != nil {
			if aerr.CellError != nil {
				aerr.CellError.Key = req.Cell
			}
			return nil, aerr
		}
		return res.(json.RawMessage), nil
	}

	var payload []byte
	var hit bool
	var err error
	if cells := s.cfg.CellCache; cells != nil {
		// Cache hits skip admission entirely (like memo hits); misses
		// singleflight so concurrent identical cells elect one leader, who
		// computes through the full envelope, while the rest wait under
		// their own deadlines as memo joiners do. Errors are never cached.
		ctx, cancel := context.WithTimeout(r.Context(), s.resolveDeadline(req.DeadlineMS))
		defer cancel()
		payload, hit, err = cells.Do(ctx, fp, run, s.leaderOnly(tc.class))
	} else {
		payload, err = run()
	}
	if err != nil {
		s.fail(w, "cell", s.joinError(err))
		return
	}
	s.finish(w, "cell", tc, start, &CellResponse{
		Cell: req.Cell, Fingerprint: fp, Payload: payload, Cached: hit,
		PayloadSHA256: experiments.CellPayloadDigest(fp, payload),
	})
}

// runCell executes the cell exactly as a checkpointed serial sweep would:
// same Bench configuration, same per-cell seed derivation, same journal
// payload encoding. The request context cancels in-flight work.
func (s *Server) runCell(ctx context.Context, req *CellRequest) (any, error) {
	b := experiments.NewQuickBench(req.Seed, req.Scale)
	b.Nets = req.Nets
	b.Ctx = ctx
	b.Store = s.stats
	return b.RunCellChecked(req.Cell, experiments.RunOptions{})
}
