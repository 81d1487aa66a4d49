package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"ristretto/internal/runner"
	"ristretto/internal/telemetry"
	"ristretto/internal/workload"
)

// RunStats describes how a full sweep executed: the worker bound, the
// wall-clock time of the whole run, the summed per-experiment durations
// (what a serial run would roughly have cost), and the per-experiment
// timing breakdown that run manifests record. Speedup is the Work/Elapsed
// ratio — the effective parallelism achieved.
type RunStats struct {
	Experiments int
	Workers     int
	Elapsed     time.Duration
	Work        time.Duration

	// Timings lists one entry per experiment job in paper order: the result
	// IDs the job regenerated, total rows, and its wall time. Only the
	// durations vary run to run; IDs and rows are deterministic.
	Timings []telemetry.ExperimentTiming
}

// Speedup returns the effective wall-clock speedup over running the same
// experiments back to back.
func (s RunStats) Speedup() float64 {
	if s.Elapsed <= 0 {
		return 1
	}
	return float64(s.Work) / float64(s.Elapsed)
}

// RunOptions configures fault tolerance for a checked sweep. The zero value
// runs exactly like the plain All: no journal, stop at the first failing
// job, no timeouts or retries, no fault injection.
type RunOptions struct {
	// Journal, when set, records each completed job so an interrupted run
	// can resume: journaled jobs are replayed from the checkpoint instead of
	// re-executed, which is what makes resume output bit-identical to an
	// uninterrupted run.
	Journal *Journal

	// KeepGoing runs every job even after failures, surfacing each failed
	// job as a placeholder Result carrying its CellError instead of
	// aborting the sweep.
	KeepGoing bool

	// CellTimeout bounds each job's wall time (0 = none).
	CellTimeout time.Duration

	// Retries and Backoff configure bounded retry for transient job errors;
	// Retryable classifies them (nil with Retries > 0 retries everything
	// except cancellation).
	Retries   int
	Backoff   time.Duration
	Retryable func(error) bool

	// Fault is the fault-injection hook threaded into the runner (nil =
	// none). See internal/faultinject.
	Fault runner.Fault
}

// runnerCfg translates the options into the runner configuration for a
// sweep of n jobs keyed by keyOf.
func (o RunOptions) runnerCfg(seed int64, keyOf func(i int) string) runner.Cfg {
	return runner.Cfg{
		Timeout:   o.CellTimeout,
		KeepGoing: o.KeepGoing,
		Retries:   o.Retries,
		Backoff:   o.Backoff,
		Retryable: o.Retryable,
		Fault:     o.Fault,
		Seed:      func(i int) int64 { return workload.DeriveSeed(seed, "job", keyOf(i)) },
	}
}

// RunReport is RunStats plus the fault-tolerance outcome of a checked run.
type RunReport struct {
	RunStats

	// Resumed counts jobs replayed from the checkpoint journal instead of
	// executed.
	Resumed int

	// Interrupted is true when the run context was cancelled before every
	// job finished; the returned results are partial (but everything
	// completed is journaled when a Journal is set).
	Interrupted bool

	// Failures records every failed job, in job order.
	Failures []telemetry.CellFailure
}

// namedJob pairs an experiment job with the stable key it journals under.
type namedJob struct {
	key string
	run func() []*Result
}

// jobs returns every regenerated table and figure in paper order with its
// stable journal key. Keys are part of the checkpoint format: renaming one
// orphans its journaled cells.
func (b *Bench) jobs() []namedJob {
	one := func(f func() *Result) func() []*Result {
		return func() []*Result { return []*Result{f()} }
	}
	return []namedJob{
		{"figure1", one(b.Figure1)},
		{"taxonomy", Taxonomy},
		{"figure4", one(b.Figure4)},
		{"table4", one(TableIV)},
		{"table6", one(TableVI)},
		{"figure12", one(b.Figure12)},
		{"figure13", one(b.Figure13)},
		{"figure14", one(b.Figure14)},
		{"figure15", one(b.Figure15)},
		{"figure16", one(b.Figure16)},
		{"figure17", one(b.Figure17)},
		{"figure18", one(b.Figure18)},
		{"figure19a", one(b.Figure19a)},
		{"figure19b", one(b.Figure19b)},
		{"ext-tablei", one(b.ExtTableI)},
		{"ext-figure3", one(b.ExtFigure3)},
		{"ext-stride", one(b.ExtStride)},
		{"ext-fifo", one(b.ExtFIFO)},
		{"ext-formats", one(b.ExtFormats)},
		{"ext-highprec", one(b.ExtHighPrecision)},
		{"ext-balancing", one(b.ExtBalancingNetworks)},
		{"ext-multicore", one(b.ExtMultiCore)},
	}
}

// All runs every regenerated table and figure in paper order, fanning the
// independent experiments out over the bench worker pool. Results — content
// and order — are bit-identical for every Workers setting: each experiment
// derives its own random streams (workload.DeriveSeed) and shares workload
// synthesis through the single-flight stats cache.
func (b *Bench) All() []*Result {
	rs, _ := b.AllStats()
	return rs
}

// AllStats is All plus execution metadata for reporting wall-clock speedup.
func (b *Bench) AllStats() ([]*Result, RunStats) {
	rs, rep, _ := b.AllChecked(RunOptions{})
	return rs, rep.RunStats
}

// AllChecked is All under fault tolerance: jobs journal to a checkpoint,
// failures surface as placeholder Results with CellErrors, cancellation
// yields a partial (journaled) run, and a resumed run replays journaled
// jobs for bit-identical output. The returned error is non-nil only for a
// stop-mode job failure or a cancelled context; with KeepGoing the failures
// are in the report instead.
func (b *Bench) AllChecked(opts RunOptions) ([]*Result, RunReport, error) {
	jobs := b.jobs()
	type jobOut struct {
		rs      []*Result
		elapsed time.Duration
		resumed bool
	}
	var workNS atomic.Int64
	start := time.Now()
	telem := telemetry.Default.Enabled()
	cfg := opts.runnerCfg(b.Seed, func(i int) string { return jobs[i].key })
	groups, err := runner.MapCfg(b.ctx(), b.pool(), cfg, len(jobs), func(i int) (jobOut, error) {
		if opts.Journal != nil {
			if raw, ok := opts.Journal.Lookup(jobs[i].key); ok {
				rs, derr := decodeResults(raw)
				if derr != nil {
					return jobOut{}, fmt.Errorf("experiments: corrupt journal payload for %q: %w", jobs[i].key, derr)
				}
				if telem {
					telemetry.Default.Counter("runner.cells_resumed").Inc()
				}
				return jobOut{rs: rs, resumed: true}, nil
			}
		}
		t0 := time.Now()
		rs := jobs[i].run()
		d := time.Since(t0)
		workNS.Add(int64(d))
		if opts.Journal != nil && b.ctx().Err() == nil {
			// An interrupted job returns partial Results carrying a context
			// error; journaling those would freeze the partial rows into
			// every future resume. Only completed jobs are durable.
			if jerr := opts.Journal.Append(jobs[i].key, encodeResults(rs)); jerr != nil {
				return jobOut{}, fmt.Errorf("experiments: journaling %q: %w", jobs[i].key, jerr)
			}
		}
		return jobOut{rs: rs, elapsed: d}, nil
	})

	rep := RunReport{RunStats: RunStats{Workers: b.pool().Workers()}}
	failed := map[int]*runner.CellError{}
	for _, ce := range runner.AsCellErrors(err) {
		failed[ce.Cell] = ce
	}
	var out []*Result
	for i, g := range groups {
		if ce, ok := failed[i]; ok {
			out = append(out, FailedCell(jobs[i].key, ce))
			rep.Failures = append(rep.Failures, telemetry.CellFailure{
				Cell:     jobs[i].key,
				Error:    ce.Err.Error(),
				Seed:     ce.Seed,
				Attempts: ce.Attempts,
				Panic:    ce.Stack != nil,
				TimedOut: ce.TimedOut,
			})
			continue
		}
		if g.rs == nil {
			continue // never started (cancelled or past the stop watermark)
		}
		if g.resumed {
			rep.Resumed++
		}
		out = append(out, g.rs...)
		t := telemetry.ExperimentTiming{Millis: float64(g.elapsed.Nanoseconds()) / 1e6}
		for _, r := range g.rs {
			t.IDs = append(t.IDs, r.ID)
			t.Rows += len(r.Rows)
		}
		rep.Timings = append(rep.Timings, t)
	}
	rep.Experiments = len(out)
	rep.Elapsed = time.Since(start)
	rep.Work = time.Duration(workNS.Load())
	rep.Interrupted = b.ctx().Err() != nil
	if opts.KeepGoing && len(rep.Failures) > 0 {
		// Failures are fully described in the report; the run itself
		// "succeeded" in keep-going terms.
		err = nil
	}
	return out, rep, err
}

// FailedCell is the placeholder Result a failed job leaves in its slot of
// the paper order, carrying the replayable error. A keep-going run builds
// it here, whether the sweep ran locally (AllChecked) or across the fleet
// (fleet.Run), so both merges render the same.
func FailedCell(key string, err error) *Result {
	return &Result{ID: "Job " + key, Title: "experiment job failed", Err: err}
}
