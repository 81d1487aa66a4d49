package fleet

// Chaos suite: real worker processes (the test binary re-exec'd into
// worker mode), real signals. The property under test is the distributed
// determinism guarantee under failure — killing a worker mid-sweep must
// not change a single output byte, and a remote panic must come back
// replayable.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"ristretto/internal/experiments"
	"ristretto/internal/faultinject"
	"ristretto/internal/runner"
	"ristretto/internal/server"
	"ristretto/internal/telemetry"
	"ristretto/internal/workload"
)

const chaosWorkerEnv = "RISTRETTO_FLEET_CHAOS_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(chaosWorkerEnv) == "1" {
		runChaosWorker()
		return
	}
	os.Exit(m.Run())
}

// runChaosWorker serves /v1/cell until killed, announcing its address on
// stdout and then each /v1/cell request as it starts serving it.
// RISTRETTO_FLEET_FAULT injects a fault schedule into the worker.
func runChaosWorker() {
	cfg := server.Config{Registry: telemetry.NewRegistry()}
	if spec := os.Getenv("RISTRETTO_FLEET_FAULT"); spec != "" {
		s, err := faultinject.ParseSpec(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos worker:", err)
			os.Exit(1)
		}
		cfg.Fault = faultinject.New(s)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos worker:", err)
		os.Exit(1)
	}
	fmt.Printf("CHAOS_WORKER %s\n", ln.Addr())
	h := server.New(cfg).Handler()
	announce := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/cell" {
			fmt.Println("CHAOS_CELL")
		}
		h.ServeHTTP(w, r)
	})
	if err := http.Serve(ln, announce); err != nil {
		fmt.Fprintln(os.Stderr, "chaos worker:", err)
		os.Exit(1)
	}
}

// spawnChaosWorker starts one worker process and returns its URL, its
// process, and a channel that receives as the worker starts serving a
// cell (sends that find the channel full are dropped).
func spawnChaosWorker(t *testing.T, extraEnv ...string) (string, *exec.Cmd, <-chan struct{}) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), chaosWorkerEnv+"=1")
	cmd.Env = append(cmd.Env, extraEnv...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	addrCh := make(chan string, 1)
	cells := make(chan struct{}, 1)
	go func() {
		defer close(addrCh)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "CHAOS_WORKER "); ok {
				addrCh <- addr
			} else if sc.Text() == "CHAOS_CELL" {
				select {
				case cells <- struct{}{}:
				default:
				}
			}
		}
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			t.Fatal("worker exited before announcing its address")
		}
		return "http://" + addr, cmd, cells
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not announce its address within 30s")
	}
	panic("unreachable")
}

// TestFleetChaosSIGKILLWorker: three real worker processes, one of them
// SIGKILLed mid-sweep. The coordinator must reassign its in-flight and
// queued cells to the survivors and still produce a manifest
// byte-identical to the serial run.
func TestFleetChaosSIGKILLWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos sweep in -short mode")
	}
	var workers []string
	var victims []*exec.Cmd
	var firstCell <-chan struct{}
	for i := 0; i < 3; i++ {
		url, cmd, cells := spawnChaosWorker(t)
		workers = append(workers, url)
		victims = append(victims, cmd)
		if i == 0 {
			firstCell = cells
		}
	}

	// SIGKILL worker 0 as it starts serving its first cell: the kill then
	// lands with that cell in flight and the rest of worker 0's share
	// queued, so it strikes out on them and is retired. A fixed delay
	// cannot promise that: where the sweep runs fast enough, it lands
	// with too few cells left for worker 0 to strike out on.
	killed := make(chan error, 1)
	swept := make(chan struct{})
	go func() {
		select {
		case <-firstCell:
			killed <- syscall.Kill(victims[0].Process.Pid, syscall.SIGKILL)
		case <-swept:
			killed <- errors.New("worker 0 served no cell")
		}
	}()

	rs, rep, err := Run(context.Background(), fleetCfg(workers...))
	close(swept)
	if err != nil {
		t.Fatal(err)
	}
	if kerr := <-killed; kerr != nil {
		t.Fatalf("SIGKILL failed: %v", kerr)
	}
	if got := render(rs); got != serialGolden() {
		t.Fatalf("output differs from serial run after SIGKILL:\n%s", firstDiff(t, got, serialGolden()))
	}
	if rep.Failures != 0 {
		t.Fatalf("%d cells reported failed; a killed worker must not surface failures", rep.Failures)
	}
	if rep.RetiredWorkers != 1 {
		t.Errorf("retired %d workers, want exactly the killed one", rep.RetiredWorkers)
	}
	if rep.Reassigned == 0 {
		t.Error("no cells reassigned after the kill")
	}
	for _, o := range rep.Outcomes {
		if o.Worker == -1 {
			t.Errorf("cell %q claims a local cache hit in an uncached run", o.Cell)
		}
	}
}

// TestFleetRemotePanicReproducesLocally is the satellite regression for
// the wire-format replay-seed gap: a panic on a remote worker must come
// back with a replay seed that (1) uniquely names the failed cell under
// the local AllChecked derivation and (2) drives a local replay of that
// exact cell to the same classification. Before WireCellError, remote
// failures lost their seeds and a local replay could not target the
// failed cell.
func TestFleetRemotePanicReproducesLocally(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process sweep in -short mode")
	}
	url, _, _ := spawnChaosWorker(t, "RISTRETTO_FLEET_FAULT=seed=7,panic=1")
	rs, rep, err := Run(context.Background(), fleetCfg(url))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != rep.Cells {
		t.Fatalf("%d/%d cells failed; the always-panic worker should fail every cell", rep.Failures, rep.Cells)
	}

	out := rep.Outcomes[0]
	if out.Err == nil {
		t.Fatal("first outcome carries no wire error")
	}
	ce := out.Err.CellError()
	if ce.Stack == nil {
		t.Fatal("remote panic lost its classification crossing the wire")
	}
	if ce.Seed == 0 {
		t.Fatal("remote panic carries no replay seed")
	}

	// (1) The seed uniquely resolves to the failed cell under the local
	// derivation — the property that makes a replay target the right work.
	var resolved []string
	for _, k := range experiments.CellKeys() {
		if workload.DeriveSeed(testSeed, "job", k) == ce.Seed {
			resolved = append(resolved, k)
		}
	}
	if len(resolved) != 1 || resolved[0] != out.Cell {
		t.Fatalf("replay seed %d resolves to %v, want exactly [%s]", ce.Seed, resolved, out.Cell)
	}

	// (2) A local replay of that cell reproduces the same failure shape:
	// same derived seed, panic classification, same cell identity.
	b := experiments.NewQuickBench(testSeed, testScale)
	b.Nets = append([]string(nil), testNets...)
	_, lerr := b.RunCellChecked(out.Cell, experiments.RunOptions{
		Fault: func(cell, attempt int) error { panic("replay: injected") },
	})
	var local *runner.CellError
	if !asCellError(lerr, &local) {
		t.Fatalf("local replay returned %T (%v), want *runner.CellError", lerr, lerr)
	}
	if local.Seed != ce.Seed {
		t.Fatalf("local replay derives seed %d, remote reported %d: wire format broke the round trip",
			local.Seed, ce.Seed)
	}
	if local.Stack == nil {
		t.Fatal("local replay not classified as a panic")
	}

	// The placeholder Result in the merged output is the one a local
	// keep-going run builds for the same cell and error.
	if want := experiments.FailedCell(out.Cell, ce); !reflect.DeepEqual(rs[0], want) {
		t.Fatalf("placeholder result %+v, want %+v", rs[0], want)
	}
}
