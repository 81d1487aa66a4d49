package main

// Replays call the program's layer functions directly, with the same
// inputs and seed derivations the workload's own operations used, so each
// layer is timed from outside the program. Each replay also cross-checks
// its answers against what the workload was served.

import (
	"fmt"
	"path/filepath"
	"reflect"
	"time"

	"ristretto/internal/atom"
	"ristretto/internal/balance"
	"ristretto/internal/baselines/bitfusion"
	"ristretto/internal/baselines/laconic"
	"ristretto/internal/baselines/scnn"
	"ristretto/internal/baselines/snap"
	"ristretto/internal/baselines/sparten"
	"ristretto/internal/cellcache"
	"ristretto/internal/core"
	"ristretto/internal/energy"
	"ristretto/internal/experiments"
	"ristretto/internal/model"
	"ristretto/internal/quant"
	"ristretto/internal/ristretto"
	"ristretto/internal/safeio"
	"ristretto/internal/telemetry"
	"ristretto/internal/tensor"
	"ristretto/internal/workload"
)

// cnnLayerRow is one CNN layer of the per-layer breakdown in the trace.
type cnnLayerRow struct {
	Net         string  `json:"net"`
	Precision   string  `json:"precision"`
	Index       int     `json:"index"`
	Layer       string  `json:"layer"`
	Values      int     `json:"values"`
	OperandsMS  float64 `json:"operands_ms"`
	StatsMS     float64 `json:"stats_ms"`
	ActDensity  float64 `json:"act_value_density"`
	WDensity    float64 `json:"weight_value_density"`
	Cycles      int64   `json:"ristretto_cycles"`
	IdealCycles int64   `json:"ristretto_ideal_cycles"`
	Utilization float64 `json:"ristretto_utilization"`
	MemoryBound bool    `json:"memory_bound"`
}

// precisionFor mirrors the experiment suite's precision names.
func precisionFor(n *model.Network, name string, seed int64) (model.Precision, error) {
	switch name {
	case "8b":
		return model.Uniform(n, 8), nil
	case "4b":
		return model.Uniform(n, 4), nil
	case "2b":
		return model.Uniform(n, 2), nil
	case "mix2/4":
		return model.Mixed24(n, uint64(seed)), nil
	}
	return model.Precision{}, fmt.Errorf("unknown precision %q", name)
}

// replayNetwork re-synthesizes a network the way Bench.Stats does, one CNN
// layer at a time, timing LayerOperands and StatsFromTensors and, as
// separate direct calls on the same operands, quant.Measure and
// atom.TermHistogram. When want is non-nil the replayed statistics must
// equal it exactly.
func (r *run) replayNetwork(parent int, b *experiments.Bench, n *model.Network, precision string, gran atom.Granularity, want []workload.LayerStats) ([]workload.LayerStats, []cnnLayerRow) {
	sn := b.Scaled(n)
	p, err := precisionFor(sn, precision, b.Seed)
	if err != nil {
		r.problem("replay %s: %v", n.Name, err)
		return nil, nil
	}
	netSpan := r.tr.begin("replay.network "+n.Name+" "+precision, parent)
	g := workload.NewGen(workload.DeriveSeed(b.Seed, "stats", n.Name, precision, fmt.Sprint(int(gran)), fmt.Sprint(b.Scale)))
	stats := make([]workload.LayerStats, len(sn.Layers))
	rows := make([]cnnLayerRow, len(sn.Layers))
	var synth time.Duration
	for i, l := range sn.Layers {
		ls := r.tr.begin("replay.cnn_layer "+l.Name, netSpan)
		t := workload.EvalTargets(n.Name, p.WBits[i], p.ABits[i])
		var f *tensor.FeatureMap
		var k *tensor.KernelStack
		dOps := r.tr.timed("workload.LayerOperands", ls, func(int) { f, k = g.LayerOperands(l, p.WBits[i], p.ABits[i], t) })
		dStats := r.tr.timed("workload.StatsFromTensors", ls, func(int) { stats[i] = workload.StatsFromTensors(l, f, k, gran, true) })
		dMeasure := r.tr.timed("quant.Measure", ls, func(int) {
			quant.Measure(f.Data, f.Bits, gran)
			quant.Measure(k.Data, k.Bits, gran)
		})
		dHist := r.tr.timed("atom.TermHistogram", ls, func(int) {
			atom.TermHistogram(f.Data, true)
			atom.TermHistogram(k.Data, true)
		})
		r.tr.end(ls)
		values := len(f.Data) + len(k.Data)
		synth += dOps + dStats
		r.addSynthesis(dOps, dStats, values)
		r.addLayer("quant.measure_ms", ms(dMeasure))
		r.addLayer("atom.term_histogram_ms", ms(dHist))
		rows[i] = cnnLayerRow{Net: n.Name, Precision: precision, Index: i, Layer: l.Name, Values: values,
			OperandsMS: ms(dOps), StatsMS: ms(dStats), ActDensity: stats[i].A.ValueDensity, WDensity: stats[i].W.ValueDensity}
	}
	r.tr.end(netSpan)
	perNet, _ := r.detail["network_stats_ms"].(map[string]float64)
	if perNet == nil {
		perNet = map[string]float64{}
		r.detail["network_stats_ms"] = perNet
	}
	perNet[n.Name+" "+precision] = ms(synth)
	if want != nil && !reflect.DeepEqual(stats, want) {
		r.problem("replayed synthesis of %s %s differs from the statistics the program used", n.Name, precision)
	}
	return stats, rows
}

// addSynthesis adds one replayed CNN layer's synthesis: operand
// generation, statistics measurement and the operand values produced.
func (r *run) addSynthesis(operands, stats time.Duration, values int) {
	r.addLayer("workload.layer_operands_ms", ms(operands))
	r.addLayer("workload.stats_from_tensors_ms", ms(stats))
	r.addLayer("replay.layers", 1)
	r.addLayer("replay.values", float64(values))
	r.addLayer("replay.operands_s", operands.Seconds())
}

// finishSynthesis turns the replay totals into the derived metrics.
func (r *run) finishSynthesis() {
	if n := r.layer["replay.layers"]; n > 0 {
		r.layer["workload.layer_stats_ms"] = (r.layer["workload.layer_operands_ms"] + r.layer["workload.stats_from_tensors_ms"]) / n
	}
	if s := r.layer["replay.operands_s"]; s > 0 {
		r.layer["workload.values_per_s"] = r.layer["replay.values"] / s
	}
	for _, k := range []string{"replay.layers", "replay.values", "replay.operands_s"} {
		delete(r.layer, k)
	}
}

// modelAnswer is what /v1/model reports for one accelerator, recomputed.
type modelAnswer struct {
	Cycles    int64
	Energy    energy.Breakdown
	DRAMBytes int64
}

// baselineAccels are the seven comparison accelerators of /v1/model.
var baselineAccels = []string{"bitfusion", "laconic", "laconic-mod", "sparten", "sparten-mp", "scnn", "snap"}

// ristrettoConfig is the analytic configuration /v1/model uses by default.
func ristrettoConfig(gran atom.Granularity, dense bool) ristretto.Config {
	return ristretto.Config{Tiles: 8, Tile: ristretto.TileConfig{Mults: 32, Gran: gran}, Policy: balance.WeightAct, Dense: dense}
}

// replayAnalytic runs every accelerator's analytic estimator and the energy
// split over one network's statistics, as /v1/model does with its defaults.
// It returns the answers by accelerator and Ristretto's per-layer estimate.
func (r *run) replayAnalytic(parent int, label string, stats []workload.LayerStats, gran atom.Granularity) (map[string]modelAnswer, ristretto.NetworkPerf) {
	sp := r.tr.begin("replay.analytic "+label, parent)
	defer r.tr.end(sp)
	out := map[string]modelAnswer{}
	var perf ristretto.NetworkPerf
	for _, accel := range []string{"ristretto", "ristretto-ns"} {
		var np ristretto.NetworkPerf
		d := r.tr.timed("ristretto.EstimateNetwork", sp, func(int) { np = ristretto.EstimateNetwork(stats, ristrettoConfig(gran, accel == "ristretto-ns")) })
		r.addLayer("ristretto.estimate_network_us", us(d))
		if accel == "ristretto" {
			perf = np
		}
		out[accel] = r.split(sp, energy.ModelForGranularity(int(gran)), np.Cycles, np.Counters)
	}
	for _, accel := range baselineAccels {
		var cycles int64
		var cnt energy.Counters
		d := r.tr.timed("baselines."+accel+".EstimateNetwork", sp, func(int) { cycles, cnt = estimateBaseline(accel, stats) })
		r.addLayer("baselines.estimate_us", us(d))
		out[accel] = r.split(sp, energy.Default(), cycles, cnt)
	}
	return out, perf
}

func (r *run) split(parent int, m energy.Model, cycles int64, cnt energy.Counters) modelAnswer {
	var b energy.Breakdown
	d := r.tr.timed("energy.Model.Split", parent, func(int) { b = m.Split(cnt) })
	r.addLayer("energy.split_us", us(d))
	return modelAnswer{Cycles: cycles, Energy: b, DRAMBytes: cnt.DRAMBytes}
}

// estimateBaseline dispatches to a baseline estimator with the defaults
// /v1/model uses.
func estimateBaseline(accel string, stats []workload.LayerStats) (int64, energy.Counters) {
	switch accel {
	case "bitfusion":
		return bitfusion.EstimateNetwork(stats, bitfusion.DefaultConfig())
	case "laconic":
		return laconic.EstimateNetwork(stats, laconic.DefaultConfig())
	case "laconic-mod":
		return laconic.EstimateNetworkModified(stats, laconic.DefaultConfig())
	case "sparten":
		return sparten.EstimateNetwork(stats, sparten.DefaultConfig())
	case "sparten-mp":
		return sparten.EstimateNetwork(stats, sparten.Config{CUs: 32, MP: true})
	case "scnn":
		return scnn.EstimateNetwork(stats, scnn.DefaultConfig())
	case "snap":
		return snap.EstimateNetwork(stats, snap.DefaultConfig())
	}
	panic("unknown baseline " + accel) // baselineAccels is the only caller's source
}

// fillAnalyticRows copies Ristretto's per-layer estimate into the rows.
func fillAnalyticRows(rows []cnnLayerRow, perf ristretto.NetworkPerf) {
	for i := range rows {
		if i < len(perf.Layers) {
			lp := perf.Layers[i]
			rows[i].Cycles, rows[i].IdealCycles, rows[i].Utilization, rows[i].MemoryBound = lp.Cycles, lp.IdealCycles, lp.Utilization, lp.MemoryBound
		}
	}
}

// simShape is the accelerator shape of a /v1/sim request.
type simShape struct {
	Tiles, Mults int
	Balance      string
}

// simReq is one /v1/sim request.
type simReq struct {
	Net       string `json:"net"`
	Layer     string `json:"layer"`
	Precision string `json:"precision"`
	Tiles     int    `json:"tiles"`
	Mults     int    `json:"mults"`
	Gran      int    `json:"gran"`
	Balance   string `json:"balance"`
	Seed      int64  `json:"seed"`
	Scale     int    `json:"scale"`
	Deadline  int64  `json:"deadline_ms"`
}

// simStats are the simulated statistics that must repeat exactly.
type simStats struct {
	Cycles     int64 `json:"cycles"`
	Stalls     int64 `json:"stalls"`
	Conflicts  int64 `json:"conflicts"`
	DrainWait  int64 `json:"drain_wait"`
	LoadCycles int64 `json:"load_cycles"`
}

// balancePolicy maps a request's balance name to the policy, as the
// server does.
func balancePolicy(name string) balance.Policy {
	switch name {
	case "w":
		return balance.WeightOnly
	case "none":
		return balance.None
	}
	return balance.WeightAct
}

var precisionBits = map[string]int{"8b": 8, "4b": 4, "2b": 2}

// replaySim re-runs a /v1/sim request's work the way the server's
// cycle-accurate path does: operand synthesis with the server's seed
// derivation, the stream build SimulateCore starts with (timed on its own),
// the lockstep core simulation and the energy split. With rung set (the
// request is the workload's own) it also counts the operand synthesis
// toward the workload.* metrics and times the degraded analytic answer the
// server falls back to on the same operands: StatsFromTensors, the
// estimators and their energy splits.
func (r *run) replaySim(parent int, q simReq, rung bool) simStats {
	sp := r.tr.begin("replay.sim "+q.Net+" "+q.Layer+" "+q.Precision, parent)
	defer r.tr.end(sp)
	bits := precisionBits[q.Precision]
	n, err := model.ByName(q.Net)
	if err != nil {
		r.problem("replay sim: %v", err)
		return simStats{}
	}
	l, err := experiments.NewQuickBench(q.Seed, q.Scale).Scaled(n).Layer(q.Layer)
	if err != nil {
		r.problem("replay sim: %v", err)
		return simStats{}
	}
	gran := atom.Granularity(q.Gran)
	g := workload.NewGen(workload.DeriveSeed(q.Seed, "serve-sim", q.Net, q.Layer, q.Precision))
	var f *tensor.FeatureMap
	var k *tensor.KernelStack
	dOps := r.tr.timed("workload.LayerOperands", sp, func(int) { f, k = g.LayerOperands(l, bits, bits, workload.EvalTargets(q.Net, bits, bits)) })
	if rung {
		var st workload.LayerStats
		dStats := r.tr.timed("workload.StatsFromTensors", sp, func(int) { st = workload.StatsFromTensors(l, f, k, gran, true) })
		r.addSynthesis(dOps, dStats, len(f.Data)+len(k.Data))
		d := r.tr.timed("quant.Measure", sp, func(int) {
			quant.Measure(f.Data, f.Bits, gran)
			quant.Measure(k.Data, k.Bits, gran)
		})
		r.addLayer("quant.measure_ms", ms(d))
		d = r.tr.timed("atom.TermHistogram", sp, func(int) {
			atom.TermHistogram(f.Data, true)
			atom.TermHistogram(k.Data, true)
		})
		r.addLayer("atom.term_histogram_ms", ms(d))
		r.replayAnalytic(sp, q.Net+" "+q.Layer, []workload.LayerStats{st}, gran)
	}
	dStream := r.tr.timed("core.StreamBuild", sp, func(int) {
		tiles := tensor.TileGrid(f.W, f.H, f.W, f.H)
		for c := 0; c < f.C; c++ {
			core.CompressWeights(core.FlattenKernels(k, c, nil), k.Bits, gran, false)
			for _, tl := range tiles {
				core.StreamTileActs(f, c, tl, gran)
			}
		}
	})
	r.addLayer("core.stream_build_ms", ms(dStream))
	cfg := ristretto.CoreSimConfig{
		Tiles:  q.Tiles,
		Tile:   ristretto.TileConfig{Mults: q.Mults, Gran: gran},
		Policy: balancePolicy(q.Balance),
	}
	var res ristretto.CoreSimResult
	dSim := r.tr.timed("ristretto.SimulateCore", sp, func(int) { res = ristretto.SimulateCore(f, k, l.Stride, l.Pad, cfg) })
	r.addLayer("ristretto.simulate_core_ms", ms(dSim))
	r.addLayer("ristretto.sim_cycles", float64(res.Cycles))
	r.addLayer("replay.sim_ns", float64(dSim.Nanoseconds()))
	r.split(sp, energy.ModelForGranularity(q.Gran), res.Cycles, res.Counters)
	return simStats{Cycles: res.Cycles, Stalls: res.Stalls, Conflicts: res.Conflicts, DrainWait: res.DrainWait, LoadCycles: res.LoadCycles}
}

// finishSim derives host time per simulated cycle.
func (r *run) finishSim() {
	if c := r.layer["ristretto.sim_cycles"]; c > 0 {
		r.layer["ristretto.host_ns_per_sim_cycle"] = r.layer["replay.sim_ns"] / c
	}
	delete(r.layer, "replay.sim_ns")
}

// representativeSim is the sim replay of a workload that does not simulate
// on its own: the middle CNN layer of the network at the workload's seed
// and scale, with /v1/sim's default accelerator shape.
func representativeSim(net, precision string, seed int64, scale int) simReq {
	n, _ := model.ByName(net) // callers pass benchmark network names
	return simReq{Net: net, Layer: n.Layers[len(n.Layers)/2].Name, Precision: precision,
		Tiles: 8, Mults: 32, Gran: 2, Balance: "wa", Seed: seed, Scale: scale}
}

// payload is one output the storage replay persists: its content address
// and bytes.
type payload struct {
	fp   string
	data []byte
}

// replayStorage times the integrity and durability layers on the
// workload's own outputs: the fingerprint-bound payload digest, cell-cache
// Put/Get and scrub-on-open, and fsynced journal appends.
func (r *run) replayStorage(parent int, items []payload) {
	sp := r.tr.begin("replay.storage", parent)
	defer r.tr.end(sp)
	if len(items) == 0 {
		return
	}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(len(items)) }
	d := r.tr.timed("experiments.CellPayloadDigest", sp, func(int) {
		for _, it := range items {
			experiments.CellPayloadDigest(it.fp, it.data)
		}
	})
	r.setLayer("experiments.digest_us", per(d)/1e3)

	reg := telemetry.NewRegistry()
	dir := filepath.Join(r.tmp, "replay-cells")
	cache, err := cellcache.Open(dir, reg)
	if err != nil {
		r.problem("replay storage: %v", err)
		return
	}
	d = r.tr.timed("cellcache.Put", sp, func(int) {
		for _, it := range items {
			if err := cache.Put(it.fp, it.data); err != nil {
				r.problem("replay cellcache put: %v", err)
			}
		}
	})
	r.setLayer("cellcache.put_ms", per(d)/1e6)
	d = r.tr.timed("cellcache.OpenScrub", sp, func(int) {
		cache, err = cellcache.OpenWith(dir, reg, cellcache.Options{ScrubOnOpen: true})
	})
	if err != nil {
		r.problem("replay cellcache scrub: %v", err)
		return
	}
	r.setLayer("cellcache.open_scrub_ms", ms(d))
	d = r.tr.timed("cellcache.Get", sp, func(int) {
		for _, it := range items {
			if got, ok := cache.Get(it.fp); !ok || string(got) != string(it.data) {
				r.problem("replay cellcache get %s: hit=%v, payload equal=%v", it.fp[:12], ok, string(got) == string(it.data))
			}
		}
	})
	r.setLayer("cellcache.get_us", per(d)/1e3)
	r.setLayer("cellcache.hit_ratio", cacheHitRatio(reg))

	app, err := safeio.OpenAppender(filepath.Join(r.tmp, "replay.journal"), true)
	if err != nil {
		r.problem("replay journal: %v", err)
		return
	}
	d = r.tr.timed("safeio.Appender.Append", sp, func(int) {
		for _, it := range items {
			if err := app.Append(append(append([]byte(nil), it.data...), '\n')); err != nil {
				r.problem("replay journal append: %v", err)
			}
		}
	})
	if err := app.Close(); err != nil {
		r.problem("replay journal close: %v", err)
	}
	r.setLayer("safeio.append_fsync_ms", per(d)/1e6)
}

// cacheHitRatio reads a cell cache's hit ratio from its registry.
func cacheHitRatio(reg *telemetry.Registry) float64 {
	hits := reg.Counter("fleet.cache.hits").Load()
	if total := hits + reg.Counter("fleet.cache.misses").Load(); total > 0 {
		return float64(hits) / float64(total)
	}
	return 0
}
