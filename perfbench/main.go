// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the real packages in a fresh process with an
// empty temp dir, checks every output, and prints one JSON result line as
// the last line of standard output:
//
//	perfbench --workload suite --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics, measured with
// tracing off; with --trace 1 it carries the per-layer metrics and the run
// also writes its spans to <work>/traces/. README.md lists every workload
// and metric.
package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics every untraced run reports, whatever its
// workload; README.md gives each workload's meaning of first, sibling and
// repeat.
var endToEnd = []struct{ name, unit string }{
	{"first_p50_ms", "ms"},
	{"first_tail_ms", "ms"},
	{"sibling_p50_ms", "ms"},
	{"repeat_p50_ms", "ms"},
	{"repeat_tail_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics every traced run reports. Times are measured
// on every workload, from its own traffic or from a direct replay of its
// own work; counts and ratios read 0 on workloads that never reach the
// layer.
var perLayer = []struct{ name, unit string }{
	{"workload.layer_operands_ms", "ms"},
	{"workload.stats_from_tensors_ms", "ms"},
	{"workload.layer_stats_ms", "ms"},
	{"workload.values_per_s", "1/s"},
	{"quant.measure_ms", "ms"},
	{"atom.term_histogram_ms", "ms"},
	{"ristretto.estimate_network_us", "us"},
	{"baselines.estimate_us", "us"},
	{"energy.split_us", "us"},
	{"ristretto.simulate_core_ms", "ms"},
	{"core.stream_build_ms", "ms"},
	{"ristretto.sim_cycles", "count"},
	{"ristretto.host_ns_per_sim_cycle", "ns"},
	{"experiments.digest_us", "us"},
	{"cellcache.put_ms", "ms"},
	{"cellcache.get_us", "us"},
	{"cellcache.open_scrub_ms", "ms"},
	{"cellcache.hit_ratio", "ratio"},
	{"safeio.append_fsync_ms", "ms"},
	{"server.queue_wait_p50_ms", "ms"},
	{"server.queue_wait_p99_ms", "ms"},
	{"server.handler_p50_ms", "ms"},
	{"server.transport_overhead_ms", "ms"},
	{"server.memo_hit_ratio", "ratio"},
	{"server.batched_ratio", "ratio"},
	{"fleet.steals", "count"},
	{"fleet.computed", "count"},
	{"fleet.work_amplification", "ratio"},
	{"trace.overhead_us", "us"},
	{"trace.spans", "count"},
}

// benchLoad is one named workload: a load on the program.
type benchLoad struct {
	// probe builds the system under test up to the point where it accepts
	// its first operation, and returns how to tear it down. setup_s times
	// it in fresh processes.
	probe func(r *run) (func() error, error)
	// run drives the load and records latencies, outputs and, when traced,
	// per-layer numbers.
	run func(r *run) error
}

var workloads = map[string]benchLoad{
	"suite":       {probe: probeSuite, run: runSuite},
	"model-serve": {probe: probeServer, run: runModelServe},
	"sim-serve":   {probe: probeServer, run: runSimServe},
}

// inputSets is how many distinct program inputs the workload seeds map to.
// Output digests are recorded in golden.json for each set, so every seed's
// outputs are checked against a value fixed in advance.
const inputSets = 8

// inputSet maps a workload seed to the program seed 1..inputSets.
func inputSet(seed int64) int64 {
	return (seed%inputSets+inputSets)%inputSets + 1
}

// run is one benchmark invocation. Its workload drives it from one
// goroutine.
type run struct {
	workload string
	seed     int64 // workload seed: request order and replay choice
	set      int64 // program seed (input set)
	seconds  float64
	sizeName string
	sz       size
	work     string // root of everything the run writes
	tmp      string // this run's fresh temp dir
	tr       *tracer
	t0       time.Time
	log      io.Writer

	attempted int
	failed    int
	problems  []string
	first     []float64 // ms
	sibling   []float64
	repeat    []float64
	overhead  [2][]float64 // repeat ops with spans, without spans (traced runs)
	layer     map[string]float64
	detail    map[string]any
	tails     map[string]tailStat
	digest    string
}

// op counts one attempted operation; a failed one is also a problem.
func (r *run) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// problem records an output that failed its check.
func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *run) addFirst(d time.Duration)   { r.first = append(r.first, ms(d)) }
func (r *run) addSibling(d time.Duration) { r.sibling = append(r.sibling, ms(d)) }

// addRepeat records the i-th repeat operation. In traced runs only even
// operations carry a span (see repeatSpan), so the two halves give the
// tracing overhead.
func (r *run) addRepeat(i int, d time.Duration) {
	r.repeat = append(r.repeat, ms(d))
	if r.tr != nil {
		r.overhead[i%2] = append(r.overhead[i%2], ms(d))
	}
}

// repeatSpan opens the span of the i-th repeat operation: only even ones
// are traced, so odd ones measure the same work untraced.
func (r *run) repeatSpan(i int, name string, parent int) int {
	if i%2 == 1 {
		return 0
	}
	return r.tr.begin(name, parent)
}

// setLayer, addLayer and setDetail record per-layer numbers (traced runs).
func (r *run) setLayer(name string, v float64) { r.layer[name] = v }
func (r *run) addLayer(name string, v float64) { r.layer[name] += v }
func (r *run) setDetail(key string, v any)     { r.detail[key] = v }

// checkDigest reduces the run's fixed outputs to one SHA-256 and compares
// it with the digest recorded for this workload, size and input set.
func (r *run) checkDigest(canonical []byte) {
	sum := sha256.Sum256(canonical)
	r.digest = hex.EncodeToString(sum[:])
	want, ok := goldenDigest(r.sizeName, r.workload, r.set)
	switch {
	case !ok:
		r.problem("no golden digest for %s/%s input set %d (got %s)", r.sizeName, r.workload, r.set, r.digest)
	case want != r.digest:
		r.problem("output digest %s, golden %s (%s/%s input set %d)", r.digest, want, r.sizeName, r.workload, r.set)
	}
}

// elapsed reports whether the run has measured for its --seconds.
func (r *run) elapsed() bool { return time.Since(r.t0).Seconds() >= r.seconds }

// tempDir returns a fresh directory inside the run's temp dir.
func (r *run) tempDir(name string) (string, error) {
	d := filepath.Join(r.tmp, name)
	return d, os.MkdirAll(d, 0o755)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

//go:embed golden.json
var goldenJSON []byte

// goldenDigest looks up the recorded output digest.
func goldenDigest(size, wl string, set int64) (string, bool) {
	var g map[string]map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return "", false
	}
	d, ok := g[size][wl][strconv.FormatInt(set, 10)]
	return d, ok
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the benchmark and returns the exit code: 0 once a result
// line is printed, 1 when the run could not measure at all, 2 on bad flags.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload to run: suite, model-serve or sim-serve")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 36, "measure at least this long (phases with a fixed size run to completion)")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	sizeName := fs.String("size", "full", "load size: full, or tiny for the self-tests")
	work := fs.String("work", ".bench_build", "directory for temp dirs and trace files")
	probe := fs.Bool("probe", false, "internal: set up the workload's system once, print ready, tear down")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*wl]
	sz, szOK := sizes[*sizeName]
	if !ok || !szOK || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload suite|model-serve|sim-serve, --size full|tiny, --trace 0|1\n")
		return 2
	}
	r := &run{
		workload: *wl, seed: *seed, set: inputSet(*seed), seconds: *seconds,
		sizeName: *sizeName, sz: sz, work: *work, t0: time.Now(), log: stderr,
		layer: map[string]float64{}, detail: map[string]any{}, tails: map[string]tailStat{},
	}
	if *probe {
		return runProbe(r, w, stdout, stderr)
	}

	runs := filepath.Join(*work, "runs")
	err := os.MkdirAll(runs, 0o755)
	var tmp string
	if err == nil {
		tmp, err = os.MkdirTemp(runs, r.workload+"-")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	r.tmp = tmp
	defer os.RemoveAll(tmp)

	var setup []float64
	if *traceFlag == 0 {
		setup, err = measureSetup(r)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: setup probe:", err)
			return 1
		}
	} else {
		r.tr = newTracer(r.t0)
	}
	r.t0 = time.Now()
	if err := w.run(r); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rss := peakRSSMB()

	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed}
	e2e := r.endToEnd(setup, rss)
	if r.tr == nil {
		res.Metrics = e2e
	} else {
		res.Metrics = r.perLayer()
		if err := r.writeTrace(e2e, res.Metrics); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing trace:", err)
			return 1
		}
	}
	for _, p := range r.problems {
		fmt.Fprintln(stderr, "perfbench: CHECK FAILED:", p)
	}
	fmt.Fprintf(stderr, "perfbench: %s input set %d output digest %s\n", r.workload, r.set, r.digest)
	for _, k := range []string{"first", "sibling", "repeat"} {
		if t, ok := r.tails[k]; ok {
			fmt.Fprintf(stderr, "perfbench: %s tail %s\n", k, t)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// endToEnd assembles the end-to-end metrics.
func (r *run) endToEnd(setup []float64, rssMB float64) map[string]metric {
	ft, rt := tail(r.first), tail(r.repeat)
	r.tails["first"], r.tails["sibling"], r.tails["repeat"] = ft, tail(r.sibling), rt
	vals := map[string]float64{
		"first_p50_ms":   median(r.first),
		"first_tail_ms":  ft.Value,
		"sibling_p50_ms": median(r.sibling),
		"repeat_p50_ms":  median(r.repeat),
		"repeat_tail_ms": rt.Value,
		"setup_s":        median(setup),
		"peak_rss_mb":    rssMB,
	}
	out := map[string]metric{}
	for _, m := range endToEnd {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// perLayer assembles the per-layer metrics of a traced run.
func (r *run) perLayer() map[string]metric {
	if len(r.overhead[0]) > 0 && len(r.overhead[1]) > 0 {
		r.layer["trace.overhead_us"] = 1e3 * (median(r.overhead[0]) - median(r.overhead[1]))
	}
	r.layer["trace.spans"] = float64(len(r.tr.spans))
	out := map[string]metric{}
	for _, m := range perLayer {
		out[m.name] = metric{Value: r.layer[m.name], Unit: m.unit}
	}
	return out
}

// writeTrace writes the traced run's spans and breakdowns as JSON.
func (r *run) writeTrace(e2e, layers map[string]metric) error {
	self, count := r.tr.selfTimes()
	doc := traceDoc{
		RunID:     fmt.Sprintf("%s-%d-%d", r.workload, os.Getpid(), r.t0.UnixNano()),
		Workload:  r.workload,
		Seed:      r.seed,
		InputSet:  r.set,
		Size:      r.sizeName,
		Spans:     r.tr.spans,
		SelfMS:    self,
		SpanCount: count,
		TracerMS:  float64(r.tr.costNS) / 1e6,
		EndToEnd:  e2e,
		PerLayer:  layers,
		Detail:    r.detail,
		Tails:     r.tails,
		Problems:  r.problems,
	}
	delete(doc.EndToEnd, "setup_s") // not measured in traced runs
	path := filepath.Join(r.work, "traces", fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
	if err := doc.write(path); err != nil {
		return err
	}
	fmt.Fprintf(r.log, "perfbench: trace written to %s\n", path)
	return nil
}

// probes is how many fresh processes setup_s is the median of.
const probes = 7

// measureSetup times probes fresh processes from exec until the system
// under test has accepted its first operation.
func measureSetup(r *run) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < probes; i++ {
		dir, err := r.tempDir(fmt.Sprintf("probe-%d", i))
		if err != nil {
			return nil, err
		}
		d, err := probeOnce(exe, r, dir)
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// probeOnce starts one probe process, waits for its ready line, then waits
// for it to tear down and exit.
func probeOnce(exe string, r *run, dir string) (time.Duration, error) {
	cmd := exec.Command(exe, "--probe", "--workload", r.workload, "--size", r.sizeName,
		"--seed", strconv.FormatInt(r.seed, 10), "--work", dir)
	cmd.Stderr = r.log
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(pipe).ReadString('\n')
	d := time.Since(start)
	_, _ = io.Copy(io.Discard, pipe) // drain so the child never blocks on a full pipe
	werr := cmd.Wait()
	if rerr != nil || strings.TrimSpace(line) != "ready" {
		return 0, fmt.Errorf("probe printed %q: %v", line, errors.Join(rerr, werr))
	}
	return d, werr
}

// runProbe is the child side of measureSetup.
func runProbe(r *run, w benchLoad, stdout, stderr io.Writer) int {
	r.tmp = r.work
	stop, err := w.probe(r)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench probe:", err)
		return 1
	}
	fmt.Fprintln(stdout, "ready")
	if err := stop(); err != nil {
		fmt.Fprintln(stderr, "perfbench probe:", err)
		return 1
	}
	return 0
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, ln := range strings.Split(string(b), "\n") {
			if f := strings.Fields(ln); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
