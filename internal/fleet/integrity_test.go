package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ristretto/internal/experiments"
	"ristretto/internal/faultinject"
	"ristretto/internal/safeio"
	"ristretto/internal/server"
)

// hostOf strips the scheme from an httptest URL, yielding the host:port
// a faultinject.NetSpec scopes on.
func hostOf(url string) string {
	return strings.TrimPrefix(strings.TrimPrefix(url, "http://"), "https://")
}

func readLines(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return strings.Split(strings.TrimRight(string(data), "\n"), "\n"), nil
}

func writeLines(path string, lines []string) error {
	return os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}

// TestFleetCorruptResponseQuarantined is the end-to-end integrity gate
// in-process: with every response from one worker corrupted in flight
// (seed-deterministic digit rewrite — JSON stays valid, digest breaks),
// the coordinator must quarantine that worker on first contact, recompute
// its cells on the survivor, and still merge byte-identical output. No
// corrupted payload may reach the merge or the cache.
func TestFleetCorruptResponseQuarantined(t *testing.T) {
	victim, honest := newWorker(t, nil), newWorker(t, nil)
	cacheDir := filepath.Join(t.TempDir(), "cells")

	cfg := fleetCfg(victim.URL, honest.URL)
	cfg.CacheDir = cacheDir
	cfg.NetFault = faultinject.NetSpec{Seed: 9, Corrupt: 1, Host: hostOf(victim.URL)}
	rs, rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(rs); got != serialGolden() {
		t.Fatalf("corrupted responses leaked into the merge:\n%s", firstDiff(t, got, serialGolden()))
	}
	if rep.DigestMismatches == 0 {
		t.Error("no digest mismatches recorded despite corrupt=1 on the victim")
	}
	if rep.Quarantined != 1 {
		t.Errorf("quarantined %d workers, want exactly the victim", rep.Quarantined)
	}
	if rep.RetiredWorkers != 1 {
		t.Errorf("retired %d workers, want 1", rep.RetiredWorkers)
	}
	for _, o := range rep.Outcomes {
		if o.Worker == 0 {
			t.Errorf("cell %q attributed to the quarantined worker", o.Cell)
		}
	}

	// The cache must hold only verified payloads: a warm re-run against a
	// fault-free fleet serves every cell from disk, still byte-identical.
	cfg2 := fleetCfg(honest.URL)
	cfg2.CacheDir = cacheDir
	warm, warmRep, err := Run(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if render(warm) != serialGolden() {
		t.Fatal("cache poisoned: warm run differs from serial golden")
	}
	if warmRep.LocalCacheHits != warmRep.Cells {
		t.Errorf("warm run hit %d/%d — corrupted-run cells missing from cache", warmRep.LocalCacheHits, warmRep.Cells)
	}
}

// lyingWorker proxies a real worker but rewrites one digit of every cell
// payload AND re-stamps a self-consistent digest — the Byzantine case the
// wire digest cannot catch, only re-execution can.
func lyingWorker(t *testing.T, backend *httptest.Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		backend.Config.Handler.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			for k, vs := range rec.Header() {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
			return
		}
		var cr server.CellResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
			t.Errorf("proxy: undecodable backend response: %v", err)
			return
		}
		mutated := append([]byte(nil), cr.Payload...)
		for i, b := range mutated {
			if b >= '0' && b <= '9' {
				mutated[i] = '0' + (b-'0'+1)%10
				break
			}
		}
		cr.Payload = mutated
		cr.PayloadSHA256 = experiments.CellPayloadDigest(cr.Fingerprint, mutated) // the lie: digest covers the wrong bytes
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&cr)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestFleetLyingWorkerCaughtByAudit: a worker returning wrong payloads
// with self-consistent digests passes wire verification — the audit
// sampler must catch it by re-execution, arbitrate against a local
// recomputation, quarantine the liar, and keep the merged output
// byte-identical to serial.
func TestFleetLyingWorkerCaughtByAudit(t *testing.T) {
	backend := newWorker(t, nil)
	liar := lyingWorker(t, backend)
	honest := newWorker(t, nil)

	cfg := fleetCfg(liar.URL, honest.URL)
	cfg.AuditFraction = 1 // audit everything: the liar must not survive its first audited cell
	rs, rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(rs); got != serialGolden() {
		t.Fatalf("lying worker's payloads reached the merge:\n%s", firstDiff(t, got, serialGolden()))
	}
	if rep.Audits == 0 {
		t.Fatal("no audits ran despite AuditFraction=1")
	}
	if rep.AuditMismatches == 0 {
		t.Error("audits never caught the lying worker")
	}
	if rep.Quarantined == 0 {
		t.Error("lying worker was not quarantined")
	}
	audited := false
	for _, o := range rep.Outcomes {
		if o.Audited {
			audited = true
		}
	}
	if !audited {
		t.Error("no outcome is marked audited")
	}
}

// TestFleetAuditCleanFleet: on an honest fleet, audits agree and change
// nothing — no mismatches, no quarantine, byte-identical output.
func TestFleetAuditCleanFleet(t *testing.T) {
	w0, w1 := newWorker(t, nil), newWorker(t, nil)
	cfg := fleetCfg(w0.URL, w1.URL)
	cfg.AuditFraction = 0.5
	rs, rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(rs); got != serialGolden() {
		t.Fatalf("audited sweep differs from serial:\n%s", firstDiff(t, got, serialGolden()))
	}
	if rep.Audits == 0 {
		t.Error("AuditFraction=0.5 selected no cells across the sweep")
	}
	if rep.AuditMismatches != 0 || rep.Quarantined != 0 {
		t.Errorf("honest fleet flagged: %d mismatches, %d quarantined", rep.AuditMismatches, rep.Quarantined)
	}
}

// TestAuditSelectionDeterministic: the sampler's choices depend only on
// (seed, cell) — two coordinators with the same seed select identically,
// a different seed selects differently somewhere.
func TestAuditSelectionDeterministic(t *testing.T) {
	mk := func(seed int64) map[string]bool {
		c := &coord{cfg: Config{Seed: seed, AuditFraction: 0.5}}
		sel := map[string]bool{}
		for _, k := range experiments.CellKeys() {
			sel[k] = c.auditSelected(k)
		}
		return sel
	}
	a, b := mk(7), mk(7)
	some, all := false, true
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("cell %q selection differs across identical coordinators", k)
		}
		if a[k] {
			some = true
		} else {
			all = false
		}
	}
	if !some || all {
		t.Fatalf("fraction 0.5 selected some=%v all=%v; want a proper subset", some, all)
	}
	diff := false
	for k, v := range mk(8) {
		if v != a[k] {
			diff = true
		}
	}
	if !diff {
		t.Error("seed change did not move the audit sample")
	}
}

// TestFleetJournalResume: a sweep journaled to disk resumes entirely from
// the journal — byte-identical output with zero dispatches, even against
// a fleet that no longer exists.
func TestFleetJournalResume(t *testing.T) {
	w := newWorker(t, nil)
	path := filepath.Join(t.TempDir(), "fleet.journal")

	cfg := fleetCfg(w.URL)
	cfg.JournalPath = path
	first, firstRep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if render(first) != serialGolden() {
		t.Fatal("journaled run differs from serial")
	}
	if firstRep.ResumedCells != 0 {
		t.Fatalf("fresh run claims %d resumed cells", firstRep.ResumedCells)
	}

	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	cfg2 := fleetCfg(deadURL) // nothing to dispatch, so the dead fleet is never contacted
	cfg2.JournalPath = path
	cfg2.Resume = true
	resumed, rep2, err := Run(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(resumed); got != serialGolden() {
		t.Fatalf("resumed output differs from serial:\n%s", firstDiff(t, got, serialGolden()))
	}
	if rep2.ResumedCells != rep2.Cells || rep2.Computed != 0 {
		t.Fatalf("resume: %d/%d resumed, %d computed; want all/0", rep2.ResumedCells, rep2.Cells, rep2.Computed)
	}
	for _, o := range rep2.Outcomes {
		if !o.Resumed || o.Worker != -1 {
			t.Fatalf("outcome %+v not marked as journal-resumed", o)
		}
	}
}

// TestFleetJournalPartialResume: a journal holding only part of the sweep
// (the mid-kill shape) resumes the completed cells and dispatches only
// the remainder.
func TestFleetJournalPartialResume(t *testing.T) {
	w := newWorker(t, nil)
	path := filepath.Join(t.TempDir(), "fleet.journal")

	// Build the partial journal out-of-band: a full journaled run, then
	// rewrite it keeping the header and the first 5 completions — byte
	// surgery a real SIGKILL would perform by stopping the appender.
	cfg := fleetCfg(w.URL)
	cfg.JournalPath = path
	if _, _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	data, err := readLines(path)
	if err != nil {
		t.Fatal(err)
	}
	kept, completes := []string{}, 0
	for _, line := range data {
		var rec safeio.Record
		if len(line) < 9 || json.Unmarshal([]byte(line[9:]), &rec) != nil {
			continue
		}
		if rec.Kind == "complete" {
			if completes == 5 {
				continue
			}
			completes++
		}
		kept = append(kept, line)
	}
	if err := writeLines(path, kept); err != nil {
		t.Fatal(err)
	}

	cfg2 := fleetCfg(w.URL)
	cfg2.JournalPath = path
	cfg2.Resume = true
	rs, rep, err := Run(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(rs); got != serialGolden() {
		t.Fatalf("partial resume differs from serial:\n%s", firstDiff(t, got, serialGolden()))
	}
	if rep.ResumedCells != 5 {
		t.Errorf("resumed %d cells, want 5", rep.ResumedCells)
	}
	if rep.Computed != rep.Cells-5 {
		t.Errorf("computed %d cells, want %d", rep.Computed, rep.Cells-5)
	}
}
