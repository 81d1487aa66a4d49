package fleet

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ristretto/internal/experiments"
	"ristretto/internal/safeio"
	"ristretto/internal/telemetry"
)

const testBenchFP = "seed=1 scale=32 nets=AlexNet"

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

func newJournal(t *testing.T, path string, resume bool) (*journal, *telemetry.Registry) {
	t.Helper()
	r := telemetry.NewRegistry()
	r.SetEnabled(true)
	j, err := openJournal(nil, path, testBenchFP, resume, r)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.close() })
	return j, r
}

// TestJournalResumeSkipsCompleted is the crash-resume core: completions
// journaled before a kill are served on resume, in-flight assignments are
// not.
func TestJournalResumeSkipsCompleted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal")
	j, _ := newJournal(t, path, false)
	if j.resumable() {
		t.Fatal("fresh journal claims resume")
	}
	payloadA := json.RawMessage(`[{"id":"A","rows":[["1"]]}]`)
	fpA := "aa00000000000000000000000000000000000000000000000000000000000000"
	if err := j.assign("table4", 0); err != nil {
		t.Fatal(err)
	}
	if err := j.complete("table4", fpA, payloadA); err != nil {
		t.Fatal(err)
	}
	if err := j.assign("figure1", 1); err != nil { // in flight at the "kill"
		t.Fatal(err)
	}
	j.close() // the kill: no Close-time state matters, every record is already durable

	j2, r2 := newJournal(t, path, true)
	if !j2.resumable() {
		t.Fatal("journal with valid header did not resume")
	}
	fp, payload, ok := j2.lookup("table4")
	if !ok || fp != fpA || string(payload) != string(payloadA) {
		t.Fatalf("lookup(table4) = (%q, %q, %v)", fp, payload, ok)
	}
	if _, _, ok := j2.lookup("figure1"); ok {
		t.Fatal("assigned-but-incomplete cell served as complete")
	}
	snap := r2.Snapshot()
	if snap.Counters["fleet.journal.resumed_cells"] != 1 {
		t.Fatalf("resumed_cells = %d, want 1", snap.Counters["fleet.journal.resumed_cells"])
	}
}

// TestJournalFreshRunTruncates: without resume, history is discarded and
// a new header written.
func TestJournalFreshRunTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal")
	j, _ := newJournal(t, path, false)
	j.complete("table4", "ff00", json.RawMessage(`[]`))
	j.close()

	j2, _ := newJournal(t, path, false)
	if _, _, ok := j2.lookup("table4"); ok {
		t.Fatal("fresh run served stale completion")
	}
}

// TestJournalFingerprintMismatchRejected: a journal written for a
// different workload must refuse to resume, loudly.
func TestJournalFingerprintMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal")
	r := telemetry.NewRegistry()
	j, err := openJournal(nil, path, "seed=2 scale=64 nets=all", false, r)
	if err != nil {
		t.Fatal(err)
	}
	j.close()
	if _, err := openJournal(nil, path, testBenchFP, true, r); err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("workload mismatch resumed: %v", err)
	}
}

// TestJournalCorruptRecordsSkipped: torn lines, bad CRCs and — the
// end-to-end case — a record whose crc is fine but whose payload digest
// does not verify are all skipped, never served.
func TestJournalCorruptRecordsSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal")
	j, _ := newJournal(t, path, false)
	goodPayload := json.RawMessage(`[{"id":"good"}]`)
	goodFP := "cc00000000000000000000000000000000000000000000000000000000000000"
	j.complete("table4", goodFP, goodPayload)
	j.close()

	// Append by hand: a torn line, a crc-valid record whose digest lies
	// (payload swapped after digest computation), and a bit-flipped line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	lying := safeio.Record{
		Kind: "complete", Cell: "figure1", Fingerprint: goodFP,
		Digest:  experiments.CellPayloadDigest(goodFP, []byte(`["original"]`)),
		Payload: json.RawMessage(`["swapped"]`),
	}
	body, _ := json.Marshal(lying)
	fmt.Fprintf(f, "%08x %s\n", crc32.ChecksumIEEE(body), body)
	fmt.Fprintf(f, "deadbeef {\"kind\":\"complete\",\"cell\":\"figure12\"}\n") // crc mismatch
	fmt.Fprintf(f, "%08x {\"kind\":\"comp", crc32.ChecksumIEEE(body))          // torn, no newline
	f.Close()

	j2, r2 := newJournal(t, path, true)
	if _, _, ok := j2.lookup("figure1"); ok {
		t.Fatal("digest-lying record served")
	}
	if _, _, ok := j2.lookup("figure12"); ok {
		t.Fatal("crc-corrupt record served")
	}
	if _, payload, ok := j2.lookup("table4"); !ok || string(payload) != string(goodPayload) {
		t.Fatal("valid record lost amid corruption")
	}
	if j2.corruptRecords() != 3 {
		t.Fatalf("corruptRecords = %d, want 3", j2.corruptRecords())
	}
	if snap := r2.Snapshot(); snap.Counters["fleet.journal.corrupt"] != 3 {
		t.Fatalf("fleet.journal.corrupt = %d, want 3", snap.Counters["fleet.journal.corrupt"])
	}
}

// TestJournalGolden pins the ristretto.fleet-journal/v1 bytes: a fresh
// journal holding a header, an assign, a complete and a second assign must
// match testdata/fleet_v1.journal exactly, and a resume from that
// committed file must serve the completion and not the in-flight cell.
// Run with -update-golden only for a deliberate schema change.
func TestJournalGolden(t *testing.T) {
	golden := filepath.Join("testdata", "fleet_v1.journal")
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.journal")
	j, _ := newJournal(t, path, false)
	payload := json.RawMessage(`[{"id":"table4","title":"Table IV","rows":[["2b","0-6"]]}]`)
	fp := "ab00000000000000000000000000000000000000000000000000000000000000"
	if err := j.assign("table4", 0); err != nil {
		t.Fatal(err)
	}
	if err := j.complete("table4", fp, payload); err != nil {
		t.Fatal(err)
	}
	if err := j.assign("figure12/AlexNet", 1); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("fleet journal bytes drifted from %s.\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}

	// Resume from a copy of the committed file: journals written by
	// earlier builds must keep resuming.
	replay := filepath.Join(dir, "replay.journal")
	if err := os.WriteFile(replay, want, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, r2 := newJournal(t, replay, true)
	if !j2.resumable() || j2.corruptRecords() != 0 {
		t.Fatalf("resume: resumable=%v corrupt=%d, want true/0", j2.resumable(), j2.corruptRecords())
	}
	if gotFP, gotPayload, ok := j2.lookup("table4"); !ok || gotFP != fp || string(gotPayload) != string(payload) {
		t.Fatalf("lookup(table4) = (%q, %s, %v)", gotFP, gotPayload, ok)
	}
	if _, _, ok := j2.lookup("figure12/AlexNet"); ok {
		t.Fatal("assigned-but-incomplete cell served as complete")
	}
	if n := r2.Snapshot().Counters["fleet.journal.resumed_cells"]; n != 1 {
		t.Fatalf("resumed_cells = %d, want 1", n)
	}
}

// TestJournalMissingFileResumesFresh: -resume against a journal that does
// not exist yet starts a fresh sweep instead of failing.
func TestJournalMissingFileResumesFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "never-written.journal")
	j, _ := newJournal(t, path, true)
	if j.resumable() {
		t.Fatal("missing file claims resume")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal("journal file not created")
	}
}
