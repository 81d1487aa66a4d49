package server

// This file adapts the repository's engines to request/response form. Every
// function here runs inside the execute envelope (admission slot held,
// deadline armed, panics isolated into runner CellErrors), so the engines
// stay oblivious to HTTP.

import (
	"context"

	"ristretto/internal/accel"
	"ristretto/internal/atom"
	"ristretto/internal/balance"
	"ristretto/internal/conformance"
	"ristretto/internal/energy"
	"ristretto/internal/experiments"
	"ristretto/internal/model"
	"ristretto/internal/quant"
	"ristretto/internal/ristretto"
	"ristretto/internal/workload"
)

func energySplit(m energy.Model, c energy.Counters) EnergyPJ {
	s := m.Split(c)
	return EnergyPJ{ComputePJ: s.ComputePJ, OnChipPJ: s.OnChipPJ, DRAMPJ: s.OffChipPJ, TotalPJ: s.Total()}
}

// scaledLayer resolves a layer's geometry at the bench scale — the same
// shape b.Stats measures and the sim endpoint simulates.
func scaledLayer(seed int64, scale int, n *model.Network, layerName string) model.Layer {
	b := experiments.NewQuickBench(seed, scale)
	l, _ := b.Scaled(n).Layer(layerName) // existence validated with the request
	return l
}

// runModel answers a model request with the analytic estimator — the same
// computation ristretto-sim performs, minus the printing.
func (s *Server) runModel(_ context.Context, req *ModelRequest) (*ModelResponse, error) {
	b := experiments.NewQuickBench(req.Seed, req.Scale)
	b.Nets = []string{req.Net}
	b.Store = s.stats
	n := b.Networks()[0]
	stats := b.Stats(n, req.Precision, atom.Granularity(req.Gran))

	a, _ := accel.ByName(req.Accel)               // validated with the request
	policy, _ := balance.ParsePolicy(req.Balance) // validated with the request
	rc := ristretto.Config{
		Tiles:  req.Tiles,
		Tile:   ristretto.TileConfig{Mults: req.Mults, Gran: atom.Granularity(req.Gran)},
		Policy: policy,
	}
	perf := a.Estimate(stats, rc)
	return &ModelResponse{
		Net:       req.Net,
		Accel:     req.Accel,
		Precision: req.Precision,
		Layers:    len(n.Layers),
		MACs:      n.MACs(),
		Cycles:    perf.Cycles,
		MS:        float64(perf.Cycles) / 500e3,
		Energy:    energySplit(a.Energy(rc), perf.Counters),
		DRAMBytes: perf.Counters.DRAMBytes,
		Engine:    "analytic",
	}, nil
}

// simOperands synthesizes the layer workload a sim request names. The seed
// derivation folds in every identifying label so distinct requests get
// decorrelated operands while identical requests stay bit-reproducible.
func simOperands(req *SimRequest) *workload.Gen {
	return workload.NewGen(workload.DeriveSeed(req.Seed, "serve-sim", req.Net, req.Layer, req.Precision))
}

// layerBudget bounds the /v1/sim layer store (Server.layers), in bytes of
// stored layers (CoreLayer.Bytes), as StatsBudget bounds the stats store.
// A sim-serve layer at scale 16 holds 50-110 KB.
const layerBudget = 64 << 20

// runSimCore answers a sim request with the cycle-accurate whole-core
// simulator — the expensive, faithful rung of the degradation ladder.
func (s *Server) runSimCore(ctx context.Context, req *SimRequest) (*SimResponse, error) {
	l, err := s.simLayer(ctx, req)
	if err != nil {
		return nil, err
	}
	policy, _ := balance.ParsePolicy(req.Balance) // validated with the request
	res := l.Run(req.Tiles, policy)
	var busy int64
	for _, b := range res.TileBusy {
		busy += b
	}
	util := 0.0
	if res.Cycles > 0 && len(res.TileBusy) > 0 {
		util = float64(busy) / float64(res.Cycles*int64(len(res.TileBusy)))
	}
	return &SimResponse{
		Net:         req.Net,
		Layer:       req.Layer,
		Precision:   req.Precision,
		Cycles:      res.Cycles,
		Utilization: util,
		DrainWait:   res.DrainWait,
		LoadCycles:  res.LoadCycles,
		Stalls:      res.Stalls,
		Conflicts:   res.Conflicts,
		Energy:      energySplit(energy.ModelForGranularity(req.Gran), res.Counters),
		Engine:      "core-sim",
	}, nil
}

// simLayer returns the request's layer after the per-channel pass: from
// the layer store, filling it on a miss, or computed afresh when the store
// is disabled.
func (s *Server) simLayer(ctx context.Context, req *SimRequest) (*ristretto.CoreLayer, error) {
	if s.layers == nil {
		return prepareSimLayer(req), nil
	}
	l, _, err := s.layers.Do(ctx, req.layerKey(), func() (*ristretto.CoreLayer, error) {
		return prepareSimLayer(req), nil
	}, nil)
	return l, err
}

// prepareSimLayer synthesizes the layer a sim request names and runs the
// core simulator's per-channel pass over it, which reads every request
// field but tiles and balance.
func prepareSimLayer(req *SimRequest) *ristretto.CoreLayer {
	bits, _ := precisionBits(req.Precision)
	n, _ := model.ByName(req.Net)
	l := scaledLayer(req.Seed, req.Scale, n, req.Layer)
	f, k := simOperands(req).LayerOperands(l, bits, bits, workload.EvalTargets(req.Net, bits, bits))
	return ristretto.PrepareCore(f, k, l.Stride, l.Pad, ristretto.CoreSimConfig{
		Tile:  ristretto.TileConfig{Mults: req.Mults, Gran: atom.Granularity(req.Gran)},
		TileW: req.TileW,
		TileH: req.TileH,
	})
}

// runSimAnalytic is the degraded rung: the analytic latency model over the
// same synthesized layer, orders of magnitude cheaper than the cycle loop.
// Responses carry degraded=true so clients can tell fidelity dropped.
func (s *Server) runSimAnalytic(_ context.Context, req *SimRequest) (*SimResponse, error) {
	bits, _ := precisionBits(req.Precision)
	n, _ := model.ByName(req.Net)
	l := scaledLayer(req.Seed, req.Scale, n, req.Layer)
	g := simOperands(req)
	st := g.LayerStats(l, bits, bits, atom.Granularity(req.Gran), workload.EvalTargets(req.Net, bits, bits), true)
	policy, _ := balance.ParsePolicy(req.Balance) // validated with the request
	cfg := ristretto.Config{
		Tiles:  req.Tiles,
		Tile:   ristretto.TileConfig{Mults: req.Mults, Gran: atom.Granularity(req.Gran)},
		Policy: policy,
	}
	lp := ristretto.EstimateLayer(st, cfg)
	return &SimResponse{
		Net:         req.Net,
		Layer:       req.Layer,
		Precision:   req.Precision,
		Cycles:      lp.Cycles,
		Utilization: lp.Utilization,
		Energy:      energySplit(energy.ModelForGranularity(req.Gran), lp.Counters),
		Engine:      "analytic",
		Degraded:    true,
	}, nil
}

// runQuant answers a quant request with the statistical quantization sweep
// behind Figure 1 (see cmd/ristretto-quant).
func (s *Server) runQuant(_ context.Context, req *QuantRequest) (*QuantResponse, error) {
	resp := &QuantResponse{N: req.N, Gran: req.Gran}
	for _, row := range quant.Sweep(req.N, req.Seed, req.Bits, atom.Granularity(req.Gran), req.PruneW, req.PruneA) {
		resp.Rows = append(resp.Rows, QuantRow{Bits: row.Bits, Weights: quantStats(row.Weights), Acts: quantStats(row.Acts)})
	}
	return resp, nil
}

// quantStats is the wire form of one operand's quantization statistics.
func quantStats(s quant.Stats) QuantStats {
	return QuantStats{ValueDensity: s.ValueDensity, AtomDensity: s.AtomDensity, StreamAtoms: s.NonZeroAtoms, DenseAtoms: s.DenseAtoms}
}

// runConformance answers a conformance request by replaying a slice of the
// differential sweep — a live spot-check that the engines still agree with
// the reference, useful as a deep health probe.
func (s *Server) runConformance(_ context.Context, req *ConformanceRequest) (*ConformanceResponse, error) {
	var engines []conformance.Engine
	if req.Engine == "" || req.Engine == "all" {
		engines = conformance.All()
	} else {
		e, _ := conformance.ByName(req.Engine) // validated with the request
		engines = []conformance.Engine{e}
	}
	resp := &ConformanceResponse{OK: true}
	for _, rep := range conformance.Sweep(engines, req.Seed, req.Cases, false) {
		r := ConformanceReport{Engine: rep.Engine, Analytic: rep.Analytic, Cases: rep.Cases, Failures: len(rep.Failures)}
		if len(rep.Failures) > 0 {
			resp.OK = false
			r.FirstFailure = rep.Failures[0].Mismatch.Error()
		}
		resp.Reports = append(resp.Reports, r)
	}
	return resp, nil
}
