package experiments

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"ristretto/internal/faultinject"
	"ristretto/internal/runner"
	"ristretto/internal/telemetry"
)

// contextWithCancel is context.WithCancel(Background), named for readability
// at the chaos call sites.
func contextWithCancel() (context.Context, context.CancelFunc) {
	return context.WithCancel(context.Background())
}

// chaosBench is the small, fast configuration all chaos tests share; the
// journal fingerprint ties checkpoints to it.
func chaosBench(workers int) *Bench {
	b := NewQuickBench(1, 16)
	b.Nets = []string{"AlexNet"}
	b.Workers = workers
	return b
}

// renderResults concatenates the rendered results, the byte stream the
// bit-identity assertions compare.
func renderResults(rs []*Result) string {
	var sb strings.Builder
	for _, r := range rs {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// golden runs the sweep serially with no faults and returns its rendering.
func golden(t *testing.T) string {
	t.Helper()
	rs, _, err := chaosBench(1).AllChecked(RunOptions{})
	if err != nil {
		t.Fatalf("golden run failed: %v", err)
	}
	return renderResults(rs)
}

// TestChaosCancelResumeBitIdentical kills a journaled sweep mid-run via an
// injected kill (context cancellation fired by the fault schedule after a
// few cells), then resumes from the checkpoint and asserts the final output
// is bit-identical to an uninterrupted serial run.
func TestChaosCancelResumeBitIdentical(t *testing.T) {
	want := golden(t)
	jpath := filepath.Join(t.TempDir(), "sweep.journal")

	// Phase 1: run with a kill scheduled after 4 cell entries.
	b := chaosBench(2)
	ctx, cancel := contextWithCancel()
	defer cancel()
	b.Ctx = ctx
	j, err := OpenJournal(jpath, "chaos-test", b.Fingerprint(), false)
	if err != nil {
		t.Fatal(err)
	}
	sched := faultinject.New(faultinject.Spec{Seed: 7, KillAfter: 4, DelayProb: 1, Delay: 5 * time.Millisecond})
	sched.OnKill(cancel)
	_, rep, err := b.AllChecked(RunOptions{Journal: j, Fault: sched.Hook()})
	if err == nil || !rep.Interrupted {
		t.Fatalf("kill did not interrupt the run (err=%v, interrupted=%v)", err, rep.Interrupted)
	}
	done := j.Cells()
	j.Close()
	if done == 0 {
		t.Fatal("nothing journaled before the kill; checkpoint would resume from scratch")
	}
	if done >= len(chaosBench(1).jobs()) {
		t.Fatalf("all %d jobs journaled; the kill fired too late to test resume", done)
	}

	// Phase 2: resume. Only missing cells run; output must match the golden.
	b2 := chaosBench(2)
	j2, err := OpenJournal(jpath, "chaos-test", b2.Fingerprint(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !j2.Resumable() {
		t.Fatal("journal not recognized as resumable")
	}
	rs, rep2, err := b2.AllChecked(RunOptions{Journal: j2})
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	if rep2.Resumed != done {
		t.Fatalf("resumed %d cells, journal held %d", rep2.Resumed, done)
	}
	if got := renderResults(rs); got != want {
		t.Errorf("resumed output differs from uninterrupted serial run (first diverging line: %q)", diffLine(want, got))
	}
}

// TestChaosSIGKILLResume is the hard-kill variant: the sweep runs in a
// re-executed copy of the test binary, the parent SIGKILLs it once a few
// cells are journaled (no signal handler can run), resumes in-process from
// the journal the dead process left behind, and diffs against the golden.
func TestChaosSIGKILLResume(t *testing.T) {
	jpath := os.Getenv("RISTRETTO_CHAOS_JOURNAL")
	if jpath != "" {
		// Child mode: journaled serial run with slowed cells so the parent
		// reliably catches us mid-sweep.
		b := chaosBench(1)
		j, err := OpenJournal(jpath, "chaos-test", b.Fingerprint(), false)
		if err != nil {
			t.Fatal(err)
		}
		slow := func(cell, attempt int) error { time.Sleep(100 * time.Millisecond); return nil }
		b.AllChecked(RunOptions{Journal: j, Fault: slow})
		j.Close()
		return
	}
	if runtime.GOOS == "windows" {
		t.Skip("SIGKILL semantics are POSIX-only")
	}
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	want := golden(t)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	jpath = filepath.Join(t.TempDir(), "sweep.journal")
	cmd := exec.Command(exe, "-test.run", "TestChaosSIGKILLResume$")
	cmd.Env = append(os.Environ(), "RISTRETTO_CHAOS_JOURNAL="+jpath)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Poll the journal until a few cells are durable, then SIGKILL.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("child never journaled 2 cells")
		}
		if countJournalCells(jpath, chaosBench(1).Fingerprint()) >= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	cmd.Process.Kill() // SIGKILL: no flush, no handler, no goodbye
	cmd.Wait()

	b := chaosBench(2)
	j, err := OpenJournal(jpath, "chaos-test", b.Fingerprint(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !j.Resumable() || j.Cells() == 0 {
		t.Fatalf("journal from killed process not resumable (cells=%d)", j.Cells())
	}
	rs, rep, err := b.AllChecked(RunOptions{Journal: j})
	if err != nil {
		t.Fatalf("resume after SIGKILL failed: %v", err)
	}
	if rep.Resumed == 0 {
		t.Fatal("no cells replayed from the dead process's journal")
	}
	if got := renderResults(rs); got != want {
		t.Errorf("post-SIGKILL resume differs from golden (first diverging line: %q)", diffLine(want, got))
	}
}

// countJournalCells counts the durable cells a cold resume would see, by
// resuming a snapshot of the live file — the parent must read the file
// exactly as a cold resume would, without touching the child's copy.
func countJournalCells(path, fingerprint string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	snap := path + ".snapshot"
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		return 0
	}
	j, err := OpenJournal(snap, "chaos-test", fingerprint, true)
	if err != nil {
		return 0
	}
	defer j.Close()
	return j.Cells()
}

// TestChaosCorruptRecordSkipped flips a byte inside a journaled cell record:
// the crc must reject that record (it is recomputed on resume), every other
// record must survive, and the final output must still match the golden.
func TestChaosCorruptRecordSkipped(t *testing.T) {
	want := golden(t)
	jpath := filepath.Join(t.TempDir(), "sweep.journal")
	b := chaosBench(1)
	j, err := OpenJournal(jpath, "chaos-test", b.Fingerprint(), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.AllChecked(RunOptions{Journal: j}); err != nil {
		t.Fatal(err)
	}
	total := j.Cells()
	j.Close()

	// Corrupt the payload of the third cell line (line 0 is the header).
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	if len(lines) < 5 {
		t.Fatalf("journal too short: %d lines", len(lines))
	}
	mid := []byte(lines[3])
	mid[len(mid)/2] ^= 0x40
	lines[3] = string(mid)
	if err := os.WriteFile(jpath, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	b2 := chaosBench(1)
	j2, err := OpenJournal(jpath, "chaos-test", b2.Fingerprint(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.CorruptRecords() != 1 {
		t.Fatalf("corrupt records = %d, want 1", j2.CorruptRecords())
	}
	if j2.Cells() != total-1 {
		t.Fatalf("surviving cells = %d, want %d", j2.Cells(), total-1)
	}
	rs, rep, err := b2.AllChecked(RunOptions{Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed != total-1 {
		t.Fatalf("resumed %d, want %d (the corrupted cell must be recomputed)", rep.Resumed, total-1)
	}
	if got := renderResults(rs); got != want {
		t.Errorf("output after corrupt-record recovery differs from golden (first diverging line: %q)", diffLine(want, got))
	}
}

// TestChaosTransientFaultsRetriedToGolden injects transient errors into a
// third of the cells and lets bounded retry absorb them: the final output
// must be bit-identical to the no-fault golden and the retry counter must
// show the recovery actually happened.
func TestChaosTransientFaultsRetriedToGolden(t *testing.T) {
	want := golden(t)
	telemetry.Default.Reset()
	telemetry.Default.SetEnabled(true)
	t.Cleanup(func() {
		telemetry.Default.SetEnabled(false)
		telemetry.Default.Reset()
	})
	sched := faultinject.New(faultinject.Spec{Seed: 11, Transient: 0.4, TransientAttempts: 1})
	b := chaosBench(4)
	rs, _, err := b.AllChecked(RunOptions{
		Fault:     sched.Hook(),
		Retries:   2,
		Retryable: faultinject.IsTransient,
	})
	if err != nil {
		t.Fatalf("retries did not absorb the injected faults: %v", err)
	}
	if got := renderResults(rs); got != want {
		t.Errorf("output under transient faults differs from golden (first diverging line: %q)", diffLine(want, got))
	}
	if retries := telemetry.Default.Snapshot().Counters["runner.retries"]; retries == 0 {
		t.Error("runner.retries = 0; the fault schedule never fired")
	}
}

// TestChaosPanicSurfacesAsCellError injects a panic into one job and checks
// the acceptance criterion directly: the process survives, the failed job
// surfaces as a placeholder Result carrying a *runner.CellError with a
// replayable seed, and the failure is recorded for the manifest.
func TestChaosPanicSurfacesAsCellError(t *testing.T) {
	b := chaosBench(2)
	rs, rep, err := b.AllChecked(RunOptions{
		KeepGoing: true,
		Fault: func(cell, attempt int) error {
			if cell == 2 { // the "figure4" job
				panic("injected chaos panic")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("keep-going run returned error: %v", err)
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("failures = %d, want 1", len(rep.Failures))
	}
	f := rep.Failures[0]
	if f.Cell != "figure4" || !f.Panic || f.Seed == 0 {
		t.Fatalf("failure record %+v lacks cell key / panic flag / replay seed", f)
	}
	var found bool
	for _, r := range rs {
		var ce *runner.CellError
		if r.Err != nil && errors.As(r.Err, &ce) {
			found = true
			if ce.Stack == nil || ce.Seed == 0 {
				t.Fatalf("CellError %+v missing stack or seed", ce)
			}
		}
	}
	if !found {
		t.Fatal("no placeholder Result carries the CellError")
	}
	// Every other job must have completed normally.
	if len(rs) != len(b.jobs())+3 { // taxonomy expands to 4 results, 1 job failed
		t.Logf("results = %d (informational)", len(rs))
	}
}

// TestChaosKeepGoingVsStop pins the two failure modes side by side.
func TestChaosKeepGoingVsStop(t *testing.T) {
	boom := func(cell, attempt int) error {
		if cell == 1 || cell == 5 {
			return errors.New("injected hard failure")
		}
		return nil
	}
	// Stop mode: lowest failing job wins, run aborts.
	b := chaosBench(2)
	_, _, err := b.AllChecked(RunOptions{Fault: boom})
	var ce *runner.CellError
	if !errors.As(err, &ce) || ce.Cell != 1 {
		t.Fatalf("stop mode err = %v, want CellError on job 1", err)
	}
	// Keep-going: both failures collected, everything else completes.
	b2 := chaosBench(2)
	_, rep, err := b2.AllChecked(RunOptions{KeepGoing: true, Fault: boom})
	if err != nil {
		t.Fatalf("keep-going returned error: %v", err)
	}
	if len(rep.Failures) != 2 {
		t.Fatalf("failures = %d, want 2", len(rep.Failures))
	}
}

// TestDSECheckpointResume covers the DSE grid's per-point journaling: an
// interrupted sweep resumes to a frontier bit-identical to the
// uninterrupted one.
func TestDSECheckpointResume(t *testing.T) {
	b := chaosBench(1)
	tiles, mults, grans := []int{8, 16}, []int{8, 16}, []int{1, 2}
	wantPts, err := b.DesignSpaceOpts(RunOptions{}, "AlexNet", "4b", tiles, mults, grans)
	if err != nil {
		t.Fatal(err)
	}

	jpath := filepath.Join(t.TempDir(), "dse.journal")
	b2 := chaosBench(1)
	ctx, cancel := contextWithCancel()
	defer cancel()
	b2.Ctx = ctx
	j, err := OpenJournal(jpath, "dse-test", b2.Fingerprint(), false)
	if err != nil {
		t.Fatal(err)
	}
	sched := faultinject.New(faultinject.Spec{Seed: 3, KillAfter: 3})
	sched.OnKill(cancel)
	b2.DesignSpaceOpts(RunOptions{Journal: j, Fault: sched.Hook()}, "AlexNet", "4b", tiles, mults, grans)
	saved := j.Cells()
	j.Close()
	if saved == 0 || saved >= len(tiles)*len(mults)*len(grans) {
		t.Fatalf("journaled %d points; kill mistimed", saved)
	}

	b3 := chaosBench(1)
	j2, err := OpenJournal(jpath, "dse-test", b3.Fingerprint(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	gotPts, err := b3.DesignSpaceOpts(RunOptions{Journal: j2}, "AlexNet", "4b", tiles, mults, grans)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotPts) != len(wantPts) {
		t.Fatalf("resumed frontier has %d points, want %d", len(gotPts), len(wantPts))
	}
	for i := range wantPts {
		if gotPts[i] != wantPts[i] {
			t.Fatalf("point %d differs after resume: %+v vs %+v", i, gotPts[i], wantPts[i])
		}
	}
}

// TestJournalValidation pins the resume guard rails: fingerprint, tool and
// schema mismatches refuse to resume with an actionable error.
func TestJournalValidation(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j")
	j, err := OpenJournal(jpath, "toolA", "seed=1", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("cell1", map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	if _, err := OpenJournal(jpath, "toolA", "seed=2", true); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("fingerprint mismatch not rejected: %v", err)
	}
	if _, err := OpenJournal(jpath, "toolB", "seed=1", true); err == nil || !strings.Contains(err.Error(), "toolB") {
		t.Fatalf("tool mismatch not rejected: %v", err)
	}
	j2, err := OpenJournal(jpath, "toolA", "seed=1", true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !j2.Resumable() || j2.Cells() != 1 {
		t.Fatalf("valid resume failed: resumable=%v cells=%d", j2.Resumable(), j2.Cells())
	}
	raw, ok := j2.Lookup("cell1")
	if !ok || !strings.Contains(string(raw), `"x":1`) {
		t.Fatalf("payload lost: %q (ok=%v)", raw, ok)
	}
	// A missing file with resume requested degrades to a fresh journal.
	j3, err := OpenJournal(filepath.Join(t.TempDir(), "missing"), "toolA", "seed=1", true)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Resumable() {
		t.Fatal("missing file reported as resumable")
	}
}

// TestJournalDuplicateCellLatestWins: re-journaled cells supersede earlier
// records, the behaviour resumed runs rely on.
func TestJournalDuplicateCellLatestWins(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "j")
	j, err := OpenJournal(jpath, "t", "f", false)
	if err != nil {
		t.Fatal(err)
	}
	j.Append("c", 1)
	j.Append("c", 2)
	j.Close()
	j2, err := OpenJournal(jpath, "t", "f", true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	raw, _ := j2.Lookup("c")
	if string(raw) != "2" {
		t.Fatalf("latest record did not win: %q", raw)
	}
}
