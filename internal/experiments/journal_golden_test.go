package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCheckpointJournalGolden pins the ristretto.checkpoint/v1 bytes: a
// fresh journal holding a header, two cells and a re-journaled duplicate
// must match testdata/checkpoint_v1.journal exactly, and a resume from
// that committed file must serve the latest record of each cell. Run with
// -update-golden only for a deliberate schema change.
func TestCheckpointJournalGolden(t *testing.T) {
	golden := filepath.Join("testdata", "checkpoint_v1.journal")
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.journal")
	j, err := OpenJournal(path, "ristretto-bench", "seed=1 scale=32", false)
	if err != nil {
		t.Fatal(err)
	}
	appends := []struct {
		cell    string
		payload any
	}{
		{"table4", []resultJSON{{ID: "table4", Title: "Table IV", Header: []string{"gran", "shift"}, Rows: [][]string{{"2b", "0-6"}}}}},
		{"figure12/AlexNet", map[string]any{"cycles": 1234, "speedup": "2.50"}},
		{"table4", []resultJSON{{ID: "table4", Title: "Table IV", Err: "interrupted"}}},
	}
	for _, a := range appends {
		if err := j.Append(a.cell, a.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("checkpoint bytes drifted from %s.\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}

	// Resume from a copy of the committed file, not from the bytes just
	// written: files written by earlier builds must keep resuming.
	replay := filepath.Join(dir, "replay.journal")
	if err := os.WriteFile(replay, want, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(replay, "ristretto-bench", "seed=1 scale=32", true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !j2.Resumable() || j2.Cells() != 2 || j2.CorruptRecords() != 0 {
		t.Fatalf("resume: resumable=%v cells=%d corrupt=%d, want true/2/0", j2.Resumable(), j2.Cells(), j2.CorruptRecords())
	}
	for cell, want := range map[string]string{
		"table4":           `[{"id":"table4","title":"Table IV","header":null,"rows":null,"err":"interrupted"}]`,
		"figure12/AlexNet": `{"cycles":1234,"speedup":"2.50"}`,
	} {
		if raw, ok := j2.Lookup(cell); !ok || string(raw) != want {
			t.Errorf("Lookup(%s) = %s, %v; want %s", cell, raw, ok, want)
		}
	}
}
