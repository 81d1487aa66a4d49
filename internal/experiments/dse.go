package experiments

import (
	"encoding/json"
	"fmt"
	"sort"

	"ristretto/internal/atom"
	"ristretto/internal/balance"
	"ristretto/internal/energy"
	"ristretto/internal/model"
	"ristretto/internal/ristretto"
	"ristretto/internal/runner"
	"ristretto/internal/telemetry"
)

// DSEPoint is one configuration of the Ristretto design space and its
// figures of merit.
type DSEPoint struct {
	Tiles, Mults, Gran int
	Cycles             int64
	AreaMM2            float64
	EnergyMJ           float64
	PerfPerArea        float64 // 1 / (cycles × mm²), scaled
	Pareto             bool    // not dominated on (cycles, area, energy)
}

// DesignSpaceOpts sweeps tile count × multipliers per tile × atom
// granularity for one network/precision, computing cycles, area and energy
// per point and marking the Pareto frontier — the design-space exploration
// behind the paper's configuration choices (32 tiles × 32 2-bit multipliers
// vs Bit Fusion; ×16 for the BitOps-matched comparisons).
//
// Under fault tolerance, grid points journal individually to the checkpoint
// (keyed "g<gran>-t<tiles>-m<mults>"), a resumed sweep recomputes only
// missing points, and with KeepGoing failed points are excluded from the
// frontier (never marked Pareto with zeroed figures of merit) while the
// surviving points plus the aggregated CellErrors are both returned.
// RunOptions{} runs the plain sweep.
func (b *Bench) DesignSpaceOpts(opts RunOptions, netName, precision string, tiles, mults, grans []int) ([]DSEPoint, error) {
	var net *model.Network
	for _, n := range b.Networks() {
		if n.Name == netName {
			net = n
		}
	}
	if net == nil {
		return nil, fmt.Errorf("experiments: network %q not in bench set", netName)
	}
	for _, v := range tiles {
		if v <= 0 {
			return nil, fmt.Errorf("experiments: tile count %d must be positive", v)
		}
	}
	for _, v := range mults {
		if v <= 0 {
			// A zero-multiplier point no longer panics (core.Steps guards
			// it) but it performs no work, so its figures of merit would be
			// degenerate — reject it up front.
			return nil, fmt.Errorf("experiments: multiplier count %d must be positive", v)
		}
	}
	for _, v := range grans {
		if v < 1 || v > 3 {
			return nil, fmt.Errorf("experiments: atom granularity %d outside 1-3", v)
		}
	}
	// Grid order gran → tiles → mults, flattened so the sweep fans out over
	// the worker pool with a deterministic point order.
	type gridCfg struct{ gran, tl, m int }
	var grid []gridCfg
	for _, gran := range grans {
		for _, tl := range tiles {
			for _, m := range mults {
				grid = append(grid, gridCfg{gran, tl, m})
			}
		}
	}
	key := func(i int) string {
		g := grid[i]
		return fmt.Sprintf("g%d-t%d-m%d", g.gran, g.tl, g.m)
	}
	cfg := opts.runnerCfg(b.Seed, key)
	points, err := runner.MapCfg(b.ctx(), b.pool(), cfg, len(grid), func(i int) (DSEPoint, error) {
		if opts.Journal != nil {
			if raw, ok := opts.Journal.Lookup(key(i)); ok {
				var p DSEPoint
				if derr := json.Unmarshal(raw, &p); derr != nil {
					return DSEPoint{}, fmt.Errorf("experiments: corrupt journal payload for %q: %w", key(i), derr)
				}
				if telemetry.Default.Enabled() {
					telemetry.Default.Counter("runner.cells_resumed").Inc()
				}
				return p, nil
			}
		}
		g := grid[i]
		cfg := ristretto.Config{
			Tiles:  g.tl,
			Tile:   ristretto.TileConfig{Mults: g.m, Gran: atom.Granularity(g.gran)},
			Policy: balance.WeightAct,
		}
		stats := b.Stats(net, precision, atom.Granularity(g.gran))
		perf := ristretto.EstimateNetwork(stats, cfg)
		area := energy.RistrettoArea(g.tl, g.m, g.gran).Total()
		pj := energy.ModelForGranularity(g.gran).TotalPJ(perf.Counters)
		p := DSEPoint{
			Tiles: g.tl, Mults: g.m, Gran: g.gran,
			Cycles:      perf.Cycles,
			AreaMM2:     area,
			EnergyMJ:    pj / 1e9,
			PerfPerArea: 1e9 / (float64(perf.Cycles) * area),
		}
		if opts.Journal != nil && b.ctx().Err() == nil {
			if jerr := opts.Journal.Append(key(i), p); jerr != nil {
				return DSEPoint{}, fmt.Errorf("experiments: journaling %q: %w", key(i), jerr)
			}
		}
		return p, nil
	})
	if err != nil && !opts.KeepGoing {
		return nil, err
	}
	if b.ctx().Err() != nil {
		// A cancelled sweep has unstarted zero-valued points; no frontier can
		// be marked from it. The journal already holds everything completed.
		return nil, err
	}
	if ces := runner.AsCellErrors(err); len(ces) > 0 {
		// Drop failed grid points before Pareto marking: a zero-valued point
		// would dominate everything and corrupt the frontier.
		bad := map[int]bool{}
		for _, ce := range ces {
			bad[ce.Cell] = true
		}
		kept := points[:0]
		for i, p := range points {
			if !bad[i] {
				kept = append(kept, p)
			}
		}
		points = kept
	}
	markPareto(points)
	sort.SliceStable(points, func(i, j int) bool { return points[i].PerfPerArea > points[j].PerfPerArea })
	return points, err
}

// markPareto flags points not dominated on (cycles, area, energy).
func markPareto(points []DSEPoint) {
	for i := range points {
		dominated := false
		for j := range points {
			if i == j {
				continue
			}
			p, q := points[i], points[j]
			if q.Cycles <= p.Cycles && q.AreaMM2 <= p.AreaMM2 && q.EnergyMJ <= p.EnergyMJ &&
				(q.Cycles < p.Cycles || q.AreaMM2 < p.AreaMM2 || q.EnergyMJ < p.EnergyMJ) {
				dominated = true
				break
			}
		}
		points[i].Pareto = !dominated
	}
}

// DSETableOpts renders a design-space sweep as a Result. With KeepGoing,
// cell failures do not abort the sweep: the surviving frontier is rendered
// and the aggregated failure is recorded on the Result's Err field.
func (b *Bench) DSETableOpts(opts RunOptions, netName, precision string, tiles, mults, grans []int) (*Result, error) {
	points, err := b.DesignSpaceOpts(opts, netName, precision, tiles, mults, grans)
	if err != nil && points == nil {
		return nil, err
	}
	r := &Result{
		ID:     "DSE",
		Title:  fmt.Sprintf("Ristretto design space on %s (%s), sorted by perf/area", netName, precision),
		Header: []string{"tiles", "mults", "gran", "cycles", "area mm2", "energy mJ", "perf/area", "pareto"},
	}
	for _, p := range points {
		mark := ""
		if p.Pareto {
			mark = "*"
		}
		r.AddRow(fmt.Sprint(p.Tiles), fmt.Sprint(p.Mults), fmt.Sprintf("%db", p.Gran),
			fmt.Sprint(p.Cycles), fmt.Sprintf("%.3f", p.AreaMM2), fmt.Sprintf("%.3f", p.EnergyMJ),
			fmt.Sprintf("%.3g", p.PerfPerArea), mark)
	}
	r.Err = err // keep-going failures, if any
	return r, nil
}
