// Command ristretto-bench regenerates every table and figure of the paper's
// evaluation on the synthetic substrate and prints them as text tables
// (optionally writing CSVs and a structured run manifest).
//
// Usage:
//
//	ristretto-bench [-seed N] [-scale N] [-parallel N] [-only "Figure 12"]
//	                [-csv dir] [-telemetry] [-manifest path]
//	                [-checkpoint path] [-resume] [-keep-going]
//	                [-cell-timeout d] [-retries N] [-fault spec]
//	                [-cpuprofile f] [-memprofile f] [-trace f] [-pprof addr]
//	ristretto-bench -bench-manifest path [-bench-baseline path]
//	                [-bench-compare path] [-bench-tolerance x]
//	                [-bench-alloc-slack n] [-bench-scale N]
//
// The second form is the perf-trajectory mode (ROADMAP item 1): it runs the
// tracked micro-benchmark suite (internal/benchmanifest.Registry) through
// testing.Benchmark plus one end-to-end experiment-suite pass at
// -bench-scale, and writes a ristretto.bench-manifest/v1 JSON document.
// -bench-compare re-runs the suite and fails (exit 1) when any benchmark
// exceeds the committed manifest's ns/op by more than -bench-tolerance× or
// its allocs/op by more than -bench-alloc-slack; CI runs this against the
// newest committed BENCH_*.json. -bench-baseline embeds another manifest's
// entries as the baseline section and computes the geomean speedup.
//
// -scale divides layer spatial dimensions (H/W) only, keeping every ratio
// the figures report. Kernel synthesis, most of a run, does not shrink with
// it, so a larger -scale saves less time than its factor suggests.
// -parallel bounds the experiment worker pool (0 = all CPUs); the output is
// bit-identical for every value — only the wall-clock changes.
// -telemetry turns the counter registry on, prints the per-stage
// busy/stall/idle utilization table after the results, and writes a run
// manifest (JSON: seed, scale, workers, git revision, per-figure timing,
// per-stage breakdowns — see EXPERIMENTS.md for the schema) next to the
// CSVs: -manifest overrides the path, which defaults to
// <csv dir>/run_manifest.json, or results/run_manifest.json without -csv.
//
// Fault tolerance: -checkpoint journals each completed experiment to an
// append-only crc-guarded file (schema ristretto.checkpoint/v1); after an
// interrupt (SIGINT/SIGTERM flush the journal and write a partial manifest,
// exit code 130) or a crash, -resume replays the journaled cells and runs
// only what is missing, producing output bit-identical to an uninterrupted
// run. -keep-going collects every cell failure instead of stopping at the
// first; -cell-timeout and -retries bound hung and transient cells; -fault
// injects a deterministic fault schedule (see EXPERIMENTS.md) for chaos
// testing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"ristretto/internal/benchmanifest"
	"ristretto/internal/experiments"
	"ristretto/internal/faultinject"
	"ristretto/internal/telemetry"
)

func main() {
	seed := flag.Int64("seed", 1, "workload generation seed")
	scale := flag.Int("scale", 1, "spatial (H/W) scale-down factor (1 = paper scale); kernel synthesis does not shrink")
	parallel := flag.Int("parallel", 0, "max concurrent experiments (0 = all CPUs, 1 = serial)")
	only := flag.String("only", "", "run only the experiment whose ID contains this substring")
	csvDir := flag.String("csv", "", "also write one CSV per experiment into this directory")
	quiet := flag.Bool("q", false, "suppress the run-stats footer")
	telem := flag.Bool("telemetry", false, "enable telemetry: print the stage-utilization table and write a run manifest")
	manifestPath := flag.String("manifest", "", "run-manifest path (default <csv dir or results>/run_manifest.json; implies -telemetry)")
	checkpoint := flag.String("checkpoint", "", "journal completed experiments to this file (schema "+experiments.CheckpointSchema+")")
	resume := flag.Bool("resume", false, "replay completed cells from the -checkpoint journal and run only what is missing")
	keepGoing := flag.Bool("keep-going", false, "run every experiment even after failures, reporting all of them")
	cellTimeout := flag.Duration("cell-timeout", 0, "per-experiment wall-time bound (0 = none)")
	retries := flag.Int("retries", 0, "max re-attempts per experiment for transient errors")
	faultSpec := flag.String("fault", "", "deterministic fault-injection spec, e.g. \"seed=7,panic=0.1,transient=0.2:2,delay=0.05:10ms,kill-after=5\"")
	benchManifestPath := flag.String("bench-manifest", "", "run the tracked micro-benchmark suite and write a "+benchmanifest.Schema+" document to this path, then exit")
	benchCompare := flag.String("bench-compare", "", "compare a fresh micro-benchmark run against the committed manifest at this path; exit 1 on regression")
	benchBaseline := flag.String("bench-baseline", "", "embed this manifest's entries as the baseline section of -bench-manifest output and compute the geomean speedup")
	benchTolerance := flag.Float64("bench-tolerance", 1.25, "ns/op regression ratio allowed by -bench-compare")
	benchAllocSlack := flag.Int64("bench-alloc-slack", 16, "absolute allocs/op slack allowed by -bench-compare")
	benchScale := flag.Int("bench-scale", 4, "experiment-suite scale for the bench_all wall-clock measurement")
	version := flag.Bool("version", false, "print version and VCS info, then exit")
	var prof telemetry.Profiler
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *version {
		fmt.Println(telemetry.VersionString("ristretto-bench"))
		return
	}
	if *benchManifestPath != "" || *benchCompare != "" {
		os.Exit(runBenchSuite(*benchManifestPath, *benchCompare, *benchBaseline, *benchTolerance, *benchAllocSlack, *seed, *benchScale))
	}
	if *scale < 1 {
		fatal(fmt.Errorf("invalid -scale %d: must be >= 1", *scale))
	}
	if *parallel < 0 {
		fatal(fmt.Errorf("invalid -parallel %d: must be >= 0 (0 = all CPUs)", *parallel))
	}
	if *resume && *checkpoint == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint"))
	}
	if *retries < 0 {
		fatal(fmt.Errorf("invalid -retries %d: must be >= 0", *retries))
	}
	if *cellTimeout < 0 {
		fatal(fmt.Errorf("invalid -cell-timeout %v: must be >= 0", *cellTimeout))
	}
	spec, err := faultinject.ParseSpec(*faultSpec)
	if err != nil {
		fatal(err)
	}
	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "ristretto-bench:", err)
		}
	}()

	if *manifestPath != "" {
		*telem = true
	}
	telemetry.Default.SetEnabled(*telem)

	// SIGINT/SIGTERM cancel the run context: in-flight cells finish (and
	// journal), no new cells start, and a partial manifest is still written.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	b := experiments.NewQuickBench(*seed, *scale)
	b.Workers = *parallel
	b.Ctx = ctx

	opts := experiments.RunOptions{
		KeepGoing:   *keepGoing,
		CellTimeout: *cellTimeout,
		Retries:     *retries,
	}
	sched := faultinject.New(spec)
	sched.OnKill(cancel)
	opts.Fault = sched.Hook()
	if spec.Transient > 0 {
		opts.Retryable = faultinject.IsTransient
	}
	if *checkpoint != "" {
		j, err := experiments.OpenJournal(*checkpoint, "ristretto-bench", b.Fingerprint(), *resume)
		if err != nil {
			fatal(err)
		}
		defer j.Close()
		if *resume {
			if j.Resumable() {
				fmt.Fprintf(os.Stderr, "ristretto-bench: resuming from %s (%d completed cells", *checkpoint, j.Cells())
				if n := j.CorruptRecords(); n > 0 {
					fmt.Fprintf(os.Stderr, ", %d corrupt records skipped", n)
				}
				fmt.Fprintln(os.Stderr, ")")
			} else {
				fmt.Fprintf(os.Stderr, "ristretto-bench: no resumable checkpoint at %s, starting fresh\n", *checkpoint)
			}
		}
		opts.Journal = j
	}

	results, rep, runErr := b.AllChecked(opts)
	failed := runErr != nil && !rep.Interrupted
	for _, r := range results {
		if *only != "" && !strings.Contains(strings.ToLower(r.ID), strings.ToLower(*only)) {
			continue
		}
		fmt.Println(r.String())
		if r.Err != nil {
			failed = true
			continue
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, r); err != nil {
				fatal(err)
			}
		}
	}
	if *telem {
		snap := telemetry.Default.Snapshot()
		fmt.Println("== Stage utilization (cycle-simulated experiments) ==")
		fmt.Print(snap.StageTable())
		path := *manifestPath
		if path == "" {
			dir := *csvDir
			if dir == "" {
				dir = "results"
			}
			path = filepath.Join(dir, "run_manifest.json")
		}
		m := telemetry.NewManifest("ristretto-bench")
		m.Seed = *seed
		m.Scale = *scale
		m.Workers = rep.Workers
		m.WallMillis = float64(rep.Elapsed.Nanoseconds()) / 1e6
		m.WorkMillis = float64(rep.Work.Nanoseconds()) / 1e6
		m.Timings = rep.Timings
		m.Interrupted = rep.Interrupted
		m.ResumedCells = rep.Resumed
		m.Checkpoint = *checkpoint
		m.Failures = rep.Failures
		m.AttachSnapshot(snap)
		if err := m.Write(path); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ristretto-bench: run manifest written to %s\n", path)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr,
			"ristretto-bench: %d experiments in %s wall-clock (%s of work, %d workers on %d CPUs, %.2fx speedup)\n",
			rep.Experiments, rep.Elapsed.Round(time.Millisecond), rep.Work.Round(time.Millisecond),
			rep.Workers, runtime.NumCPU(), rep.Speedup())
		if rep.Resumed > 0 {
			fmt.Fprintf(os.Stderr, "ristretto-bench: %d experiments replayed from checkpoint\n", rep.Resumed)
		}
		for _, f := range rep.Failures {
			fmt.Fprintf(os.Stderr, "ristretto-bench: cell %q failed: %s (replay seed %d)\n", f.Cell, f.Error, f.Seed)
		}
	}
	if rep.Interrupted {
		msg := "ristretto-bench: interrupted"
		if *checkpoint != "" {
			msg += fmt.Sprintf("; rerun with -checkpoint %s -resume to continue", *checkpoint)
		}
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(130)
	}
	if errors.Is(runErr, context.Canceled) {
		os.Exit(130)
	}
	if failed {
		fatal(fmt.Errorf("one or more experiments failed"))
	}
}

// runBenchSuite is the perf-trajectory mode: run the tracked micro-benchmark
// registry plus one end-to-end experiment pass, optionally embed a baseline,
// optionally gate against a committed manifest, optionally write the fresh
// manifest. Returns the process exit code.
func runBenchSuite(writePath, comparePath, baselinePath string, tolerance float64, allocSlack int64, seed int64, scale int) int {
	if scale < 1 {
		fmt.Fprintf(os.Stderr, "ristretto-bench: invalid -bench-scale %d: must be >= 1\n", scale)
		return 1
	}
	fmt.Fprintln(os.Stderr, "ristretto-bench: running tracked micro-benchmark suite")
	m := benchmanifest.New("ristretto-bench")
	m.Run(func(line string) { fmt.Println(line) })

	// One end-to-end pass of the experiment suite at a recorded scale: the
	// coarse wall-clock companion to the per-op entries.
	start := time.Now()
	for _, r := range experiments.NewQuickBench(seed, scale).All() {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "ristretto-bench: bench_all cell %q failed: %v\n", r.ID, r.Err)
			return 1
		}
	}
	m.BenchAllScale = scale
	m.BenchAllWallMs = float64(time.Since(start).Nanoseconds()) / 1e6
	fmt.Printf("%-28s %12.1f ms wall (scale %d)\n", "bench_all", m.BenchAllWallMs, scale)

	if baselinePath != "" {
		base, err := benchmanifest.Load(baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ristretto-bench:", err)
			return 1
		}
		m.Baseline = base.Entries
		m.BaselineNote = base.BaselineNote
		m.ComputeSpeedup()
		if m.GeomeanSpeedup > 0 {
			m.GeomeanNote = "geomean of baseline/current ns/op over benchmarks present in both"
			fmt.Printf("%-28s %12.2fx vs baseline\n", "geomean_speedup", m.GeomeanSpeedup)
		}
	}
	if comparePath != "" {
		committed, err := benchmanifest.Load(comparePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ristretto-bench:", err)
			return 1
		}
		regs := benchmanifest.Compare(committed, m, tolerance, allocSlack)
		if len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "ristretto-bench: REGRESSION:", r)
			}
			return 1
		}
		fmt.Fprintf(os.Stderr, "ristretto-bench: no regressions vs %s (tolerance %.2fx, alloc slack %d)\n",
			comparePath, tolerance, allocSlack)
	}
	if writePath != "" {
		if err := m.Write(writePath); err != nil {
			fmt.Fprintln(os.Stderr, "ristretto-bench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "ristretto-bench: benchmark manifest written to %s\n", writePath)
	}
	return 0
}

func writeCSV(dir string, r *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := strings.ToLower(strings.ReplaceAll(r.ID, " ", "_")) + ".csv"
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return r.WriteCSV(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ristretto-bench:", err)
	os.Exit(1)
}
