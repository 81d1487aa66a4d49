package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ristretto/internal/experiments"
	"ristretto/internal/faultinject"
	"ristretto/internal/runner"
	"ristretto/internal/server"
	"ristretto/internal/telemetry"
	"ristretto/internal/workload"
)

// testSeed/testScale/testNets is the shared sweep configuration: one
// network at a deep scale-down keeps a full 22-cell sweep to seconds
// while exercising every experiment.
const (
	testSeed  = 1
	testScale = 32
)

var testNets = []string{"AlexNet"}

// serialGolden renders the serial run of the shared configuration once;
// every fleet test compares against these exact bytes.
var serialGolden = sync.OnceValue(func() string {
	b := experiments.NewQuickBench(testSeed, testScale)
	b.Nets = testNets
	return render(b.All())
})

// render concatenates results exactly like ristretto-bench -q prints them.
func render(rs []*experiments.Result) string {
	var sb strings.Builder
	for _, r := range rs {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// newWorker boots one in-process ristretto-serve worker.
func newWorker(t *testing.T, mutate func(*server.Config)) *httptest.Server {
	t.Helper()
	cfg := server.Config{Registry: telemetry.NewRegistry()}
	if mutate != nil {
		mutate(&cfg)
	}
	ts := httptest.NewServer(server.New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func fleetCfg(workers ...string) Config {
	return Config{
		Workers:  workers,
		Seed:     testSeed,
		Scale:    testScale,
		Nets:     append([]string(nil), testNets...),
		Registry: telemetry.NewRegistry(),
	}
}

// TestFleetMatchesSerial is the determinism guarantee in-process: a sweep
// spread over three workers renders byte-identically to the serial run.
func TestFleetMatchesSerial(t *testing.T) {
	w0, w1, w2 := newWorker(t, nil), newWorker(t, nil), newWorker(t, nil)
	rs, rep, err := Run(context.Background(), fleetCfg(w0.URL, w1.URL, w2.URL))
	if err != nil {
		t.Fatal(err)
	}
	if got := render(rs); got != serialGolden() {
		t.Fatalf("fleet output differs from serial run:\n%s", firstDiff(t, got, serialGolden()))
	}
	if rep.Cells != len(experiments.CellKeys()) || rep.Failures != 0 {
		t.Fatalf("report %+v inconsistent with a clean full sweep", rep)
	}
	used := map[int]bool{}
	for _, o := range rep.Outcomes {
		used[o.Worker] = true
	}
	if len(used) < 2 {
		t.Errorf("only workers %v computed cells; expected the sweep to spread", used)
	}
}

// TestFleetStealsWork: with one worker slowed to a crawl, the fast worker
// drains its own deque and then steals the slow worker's backlog — and
// the merged output is still byte-identical.
func TestFleetStealsWork(t *testing.T) {
	slowBackend := newWorker(t, nil)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(300 * time.Millisecond)
		slowBackend.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)
	fast := newWorker(t, nil)

	rs, rep, err := Run(context.Background(), fleetCfg(slow.URL, fast.URL))
	if err != nil {
		t.Fatal(err)
	}
	if got := render(rs); got != serialGolden() {
		t.Fatalf("fleet output differs from serial run under stealing:\n%s", firstDiff(t, got, serialGolden()))
	}
	if rep.Steals == 0 {
		t.Error("fast worker never stole from the slow worker's deque")
	}
	stolen := 0
	for _, o := range rep.Outcomes {
		if o.Stolen {
			stolen++
		}
	}
	if stolen == 0 {
		t.Error("no outcome is marked stolen despite steals in the report")
	}
}

// TestFleetWorkerDeathReassigns: a worker that is dead from the start
// strikes out; its cells are reassigned and the survivor completes the
// sweep byte-identically.
func TestFleetWorkerDeathReassigns(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from the first request on

	live := newWorker(t, nil)
	rs, rep, err := Run(context.Background(), fleetCfg(deadURL, live.URL))
	if err != nil {
		t.Fatal(err)
	}
	if got := render(rs); got != serialGolden() {
		t.Fatalf("fleet output differs from serial run after worker death:\n%s", firstDiff(t, got, serialGolden()))
	}
	if rep.RetiredWorkers != 1 {
		t.Errorf("retired %d workers, want 1", rep.RetiredWorkers)
	}
	if rep.Reassigned == 0 {
		t.Error("no reassignments recorded for the dead worker's cells")
	}
	for _, o := range rep.Outcomes {
		if o.Worker == 0 {
			t.Errorf("cell %q attributed to the dead worker", o.Cell)
		}
	}
}

// TestFleetAllWorkersDead: when nobody can serve, Run fails loudly with
// the unassigned cells instead of hanging or returning a partial sweep.
func TestFleetAllWorkersDead(t *testing.T) {
	d1 := httptest.NewServer(http.NotFoundHandler())
	d2 := httptest.NewServer(http.NotFoundHandler())
	u1, u2 := d1.URL, d2.URL
	d1.Close()
	d2.Close()
	_, _, err := Run(context.Background(), fleetCfg(u1, u2))
	if err == nil || !strings.Contains(err.Error(), "unassigned") {
		t.Fatalf("err = %v, want unassigned-cells failure", err)
	}
}

// TestFleetCacheWarm: a second sweep over the same cache directory is
// served entirely from the content-addressed cache — byte-identical, no
// recomputation. The CI gate asserts the same ≥90% bound end to end.
func TestFleetCacheWarm(t *testing.T) {
	w := newWorker(t, nil)
	dir := filepath.Join(t.TempDir(), "cells")

	cfg := fleetCfg(w.URL)
	cfg.CacheDir = dir
	cold, coldRep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if coldRep.LocalCacheHits != 0 {
		t.Fatalf("cold run claims %d cache hits", coldRep.LocalCacheHits)
	}

	cfg2 := fleetCfg(w.URL)
	cfg2.CacheDir = dir
	warm, warmRep, err := Run(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if render(warm) != render(cold) || render(warm) != serialGolden() {
		t.Fatal("cache-warm output differs from cold/serial run")
	}
	if warmRep.Cells == 0 || warmRep.LocalCacheHits != warmRep.Cells || warmRep.Computed != 0 {
		t.Fatalf("warm run: %d/%d cache hits, %d computed; want all/0",
			warmRep.LocalCacheHits, warmRep.Cells, warmRep.Computed)
	}
}

// TestFleetDeterministicFailureNotRetried: a panic inside the experiment
// code is not a worker fault — the cell must NOT bounce between workers;
// it surfaces once as a keep-going placeholder carrying the replay seed
// a local run would derive.
func TestFleetDeterministicFailureNotRetried(t *testing.T) {
	w := newWorker(t, func(c *server.Config) {
		spec, err := faultinject.ParseSpec("seed=7,panic=1")
		if err != nil {
			t.Fatal(err)
		}
		c.Fault = faultinject.New(spec)
	})
	rs, rep, err := Run(context.Background(), fleetCfg(w.URL))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != rep.Cells {
		t.Fatalf("%d/%d cells failed; the always-panic worker should fail all", rep.Failures, rep.Cells)
	}
	if rep.Reassigned != 0 || rep.RetiredWorkers != 0 {
		t.Errorf("deterministic failures were retried (reassigned %d, retired %d)",
			rep.Reassigned, rep.RetiredWorkers)
	}
	keys := experiments.CellKeys()
	for i, r := range rs {
		var ce *runner.CellError
		if !asCellError(r.Err, &ce) {
			t.Fatalf("result %d carries %T, want *runner.CellError", i, r.Err)
		}
		if want := workload.DeriveSeed(testSeed, "job", keys[i]); ce.Seed != want {
			t.Errorf("cell %q replay seed %d, want %d", keys[i], ce.Seed, want)
		}
		if ce.Stack == nil {
			t.Errorf("cell %q failure lost its panic classification", keys[i])
		}
	}
}

// asCellError unwraps r.Err into a *runner.CellError.
func asCellError(err error, out **runner.CellError) bool {
	ce, ok := err.(*runner.CellError)
	if ok {
		*out = ce
	}
	return ok
}

// TestFleetNoWorkers: an empty worker set is a configuration error.
func TestFleetNoWorkers(t *testing.T) {
	if _, _, err := Run(context.Background(), Config{}); err == nil {
		t.Fatal("empty worker set accepted")
	}
}

// firstDiff locates the first differing line of two renders.
func firstDiff(t *testing.T, got, want string) string {
	t.Helper()
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(g), len(w))
}
