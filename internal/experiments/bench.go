package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"unsafe"

	"ristretto/internal/atom"
	"ristretto/internal/memo"
	"ristretto/internal/model"
	"ristretto/internal/runner"
	"ristretto/internal/telemetry"
	"ristretto/internal/workload"
)

// Bench owns the shared state of an experiment run: the benchmark networks,
// a deterministic seed, an optional spatial scale-down for quick runs, and a
// concurrency-safe store of generated layer statistics so each (network,
// precision, granularity) workload is synthesized exactly once even when
// experiments run in parallel.
type Bench struct {
	Seed  int64
	Scale int      // divide layer H/W by this (1 = paper scale); densities are unaffected
	Nets  []string // restrict to these networks (nil = full benchmark)

	// Workers bounds the experiment worker pool (0 = runtime.NumCPU(),
	// 1 = serial). Every experiment derives per-cell seeds with
	// workload.DeriveSeed and collects results in index order, so output is
	// bit-identical for every value — the determinism test enforces it.
	Workers int

	// Ctx, when set, cancels in-flight sweeps: once it is done no new cell
	// starts and the run returns with the partial results journaled so far.
	// The CLIs wire SIGINT/SIGTERM here. Nil means context.Background().
	Ctx context.Context

	// Store is the statistics store Stats reads through. Benches given one
	// store synthesize each workload once between them, as ristretto-serve
	// does for all its requests. Nil means a private store, made on first
	// use, so separate benches never share work.
	Store *StatsStore

	mu sync.Mutex // guards the lazy creation of Store
}

// StatsStore holds synthesized layer statistics, keyed as Stats keys them:
// network, precision, granularity, seed and scale.
type StatsStore = memo.Cache[[]workload.LayerStats]

// StatsBudget bounds a StatsStore, in bytes of layer statistics. A full
// suite at one seed and scale needs 34.2 MB (60 workloads, the largest
// ResNet-50 at about 1.2 MB), so one ristretto-bench run never evicts.
const StatsBudget = 64 << 20

// NewStatsStore returns an empty store bounded by StatsBudget. When r is
// non-nil it reports prefix.{hits,misses,inflight_dedup,evictions} and the
// gauge prefix.bytes into r.
func NewStatsStore(r *telemetry.Registry, prefix string) *StatsStore {
	return memo.New(StatsBudget, statsBytes, r, prefix, "bytes")
}

// statsBytes is the memory one network's statistics hold: the LayerStats
// structs and the backing arrays of their per-channel, per-filter and
// histogram slices.
func statsBytes(stats []workload.LayerStats) int64 {
	n := int64(cap(stats)) * int64(unsafe.Sizeof(workload.LayerStats{}))
	for i := range stats {
		s := &stats[i]
		for _, v := range [][]int{s.ActAtomsPerChan, s.WAtomsPerChan, s.ActNZPerChan, s.WNZPerChan,
			s.WNZPerFilter, s.WAtomsPerFilter, s.ATermHist, s.WTermHist} {
			n += int64(cap(v)) * int64(unsafe.Sizeof(int(0)))
		}
	}
	return n
}

// ctx returns the bench context, defaulting to Background.
func (b *Bench) ctx() context.Context {
	if b.Ctx != nil {
		return b.Ctx
	}
	return context.Background()
}

// Fingerprint identifies the workload configuration a checkpoint journal was
// written under: seed, scale and network subset. Resuming with a different
// fingerprint would silently mix incompatible cells, so the journal refuses.
func (b *Bench) Fingerprint() string {
	nets := "all"
	if b.Nets != nil {
		nets = strings.Join(b.Nets, "+")
	}
	return fmt.Sprintf("seed=%d scale=%d nets=%s", b.Seed, b.Scale, nets)
}

// mapCells is the fan-out used by every inner experiment sweep: runner.Map
// under the bench context and worker pool.
func mapCells[T any](b *Bench, n int, fn func(i int) (T, error)) ([]T, error) {
	return runner.Map(b.ctx(), b.pool(), n, fn)
}

// NewBench returns a Bench at full scale.
func NewBench(seed int64) *Bench {
	return &Bench{Seed: seed, Scale: 1}
}

// NewQuickBench returns a Bench with spatial dimensions divided by scale —
// cycle counts shrink proportionally but every ratio the figures report is
// preserved, because densities and per-value statistics do not change.
func NewQuickBench(seed int64, scale int) *Bench {
	b := NewBench(seed)
	b.Scale = scale
	return b
}

// pool returns the worker pool experiments fan out on.
func (b *Bench) pool() *runner.Pool { return runner.New(b.Workers) }

// PrecisionNames are the four quantization settings of the evaluation.
var PrecisionNames = []string{"8b", "4b", "2b", "mix2/4"}

// precisionOf maps a name to a per-layer assignment.
func precisionOf(n *model.Network, name string, seed int64) (model.Precision, error) {
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
	return model.Precision{}, fmt.Errorf("experiments: unknown precision %q", name)
}

// scaled returns the network with spatial dimensions divided by the bench
// scale (clamped so every layer still produces output).
func (b *Bench) scaled(n *model.Network) *model.Network {
	if b.Scale <= 1 {
		return n
	}
	s := &model.Network{Name: n.Name}
	for _, l := range n.Layers {
		l.H = clampDim(l.H/b.Scale, l.KH, l.Stride, l.Pad)
		l.W = clampDim(l.W/b.Scale, l.KW, l.Stride, l.Pad)
		s.Layers = append(s.Layers, l)
	}
	return s
}

// Scaled exposes the bench's spatial scaling — the exact geometry Stats
// measures. The serving layer uses it to resolve the scaled shape of a
// single layer before driving the cycle-accurate core simulator on it.
func (b *Bench) Scaled(n *model.Network) *model.Network { return b.scaled(n) }

func clampDim(d, k, stride, pad int) int {
	min := k + stride // guarantee at least a couple of output positions
	if d < min {
		return min
	}
	return d
}

// store returns the bench's statistics store, making a private one on
// first use when none was set.
func (b *Bench) store() *StatsStore {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.Store == nil {
		b.Store = NewStatsStore(nil, "")
	}
	return b.Store
}

// Stats returns (stored) layer statistics for a network under a precision
// name at the given atom granularity. It is safe for concurrent use: the
// first caller for a key synthesizes the workload, concurrent callers block
// on that synthesis and share its result (single-flight). An unknown
// precision panics in every caller and is never stored; precision names
// are validated at the CLI and request boundaries.
func (b *Bench) Stats(n *model.Network, precision string, gran atom.Granularity) []workload.LayerStats {
	key := fmt.Sprintf("%s|%s|%d|%d|%d", n.Name, precision, gran, b.Seed, b.Scale)
	// Only the fill can fail: the background context never ends a wait.
	stats, _, err := b.store().Do(context.Background(), key, func() ([]workload.LayerStats, error) {
		sn := b.scaled(n)
		p, err := precisionOf(sn, precision, b.Seed)
		if err != nil {
			return nil, err
		}
		g := workload.NewGen(workload.DeriveSeed(b.Seed, "stats", n.Name, precision, fmt.Sprint(int(gran)), fmt.Sprint(b.Scale)))
		stats := g.NetworkStats(sn, p, gran, true)
		observeWorkload(precision, stats)
		return stats, nil
	}, nil)
	if err != nil {
		panic(err)
	}
	return stats
}

// observeWorkload flushes per-precision stream statistics of a freshly
// synthesized workload into the telemetry registry: value/atom densities
// (αv/βv/αa/βa, in percent) as histograms over layers, and total compressed
// stream lengths as counters. These are the measured numbers behind the
// deviation notes in EXPERIMENTS.md — how much shorter the atom streams get
// as precision narrows.
func observeWorkload(precision string, stats []workload.LayerStats) {
	r := telemetry.Default
	if !r.Enabled() {
		return
	}
	actVD := r.Histogram("workload.act_value_density_pct." + precision)
	wVD := r.Histogram("workload.weight_value_density_pct." + precision)
	actAD := r.Histogram("workload.act_atom_density_pct." + precision)
	wAD := r.Histogram("workload.weight_atom_density_pct." + precision)
	actAtoms := r.Counter("workload.act_atoms." + precision)
	wAtoms := r.Counter("workload.weight_atoms." + precision)
	denseAtoms := r.Counter("workload.dense_atoms." + precision)
	for _, st := range stats {
		actVD.Observe(int64(100 * st.A.ValueDensity))
		wVD.Observe(int64(100 * st.W.ValueDensity))
		actAD.Observe(int64(100 * st.A.AtomDensity))
		wAD.Observe(int64(100 * st.W.AtomDensity))
		actAtoms.Add(int64(st.A.NonZeroAtoms))
		wAtoms.Add(int64(st.W.NonZeroAtoms))
		denseAtoms.Add(int64(st.A.DenseAtoms + st.W.DenseAtoms))
	}
}

// Networks returns the benchmark networks of the paper (or the configured
// subset).
func (b *Bench) Networks() []*model.Network {
	all := model.Benchmark()
	if b.Nets == nil {
		return all
	}
	var out []*model.Network
	for _, n := range all {
		for _, want := range b.Nets {
			if n.Name == want {
				out = append(out, n)
			}
		}
	}
	return out
}

// geomean returns the geometric mean of positive values.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}
