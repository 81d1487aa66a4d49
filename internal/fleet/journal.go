package fleet

// Coordinator crash-resume: the fleet journals assignment and completion
// state through a safeio.Log (the crc-framed, fsynced record log the
// checkpoint journal is built on too), so a coordinator SIGKILLed
// mid-sweep resumes without re-dispatching completed cells.
// Completion records carry the cell's payload bytes AND its
// fingerprint-bound digest: resume re-verifies every record end to end,
// so a journal corrupted on disk degrades to recomputing the affected
// cells, never to merging bad bytes. Resume is deliberately
// cache-independent — cache hits journal a completion too — so a sweep
// resumes correctly even with the cell cache disabled or wiped.

import (
	"encoding/json"
	"fmt"

	"ristretto/internal/experiments"
	"ristretto/internal/safeio"
	"ristretto/internal/telemetry"
)

// JournalSchema identifies the fleet journal file format. Bump on
// incompatible change; resume then refuses with a clear error.
const JournalSchema = "ristretto.fleet-journal/v1"

// journalTool names the writer in the header record, so a fleet journal
// and an experiment checkpoint can never be confused for one another.
const journalTool = "ristretto-fleet"

// journal is the coordinator's crash-resume record: a safeio.Log whose
// records after the header are "assign" (cell handed to a worker — audit
// trail, ignored on resume) and "complete" (cell finished, with its
// payload and fingerprint-bound digest). Safe for concurrent use by the
// worker loops.
type journal struct {
	log     *safeio.Log
	records *telemetry.Counter
}

// openJournal opens (or creates) the journal at path for a sweep whose
// workload fingerprint is benchFP. With resume false any existing file is
// truncated and a fresh header written. With resume true an existing file
// is validated — schema, tool and workload fingerprint must match or the
// error says to rerun without -resume — and every digest-verified
// completion becomes available through lookup; torn, corrupt or
// digest-mismatched records are skipped and counted, never served.
func openJournal(fsys safeio.FS, path, benchFP string, resume bool, r *telemetry.Registry) (*journal, error) {
	resumed, corrupt := r.Counter("fleet.journal.resumed_cells"), r.Counter("fleet.journal.corrupt")
	hdr := safeio.Record{Kind: "header", Schema: JournalSchema, Tool: journalTool, Fingerprint: benchFP}
	l, err := safeio.OpenLog(fsys, path, hdr, resume, func(rec safeio.Record) (keep, ok bool) {
		switch rec.Kind {
		case "assign":
			// Audit trail only: an assignment without a completion means
			// the cell was in flight at the kill and must be re-dispatched.
			return false, true
		case "complete":
			// End-to-end verification against the record's own
			// fingerprint: the crc catches torn lines, the digest catches
			// everything else (a record spliced from another journal, a
			// corrupted payload with a recomputed crc).
			ok := rec.Digest == experiments.CellPayloadDigest(rec.Fingerprint, rec.Payload)
			return ok, ok
		}
		return false, false
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: journal: %w", err)
	}
	j := &journal{log: l, records: r.Counter("fleet.journal.records")}
	if l.Resumed() {
		resumed.Add(int64(l.Cells()))
		corrupt.Add(int64(l.Corrupt()))
	} else {
		j.records.Inc() // the header
	}
	return j, nil
}

// append durably writes one record.
func (j *journal) append(rec safeio.Record, keep bool) error {
	if err := j.log.Append(rec, keep); err != nil {
		return err
	}
	j.records.Inc()
	return nil
}

// assign journals a dispatch intent. Best effort: the record is an audit
// trail, not resume state, so a failed append degrades to a log line.
func (j *journal) assign(cell string, worker int) error {
	return j.append(safeio.Record{Kind: "assign", Cell: cell, Worker: worker}, false)
}

// complete journals a finished cell with its verified payload. The record
// is durable when complete returns — the cell will not be re-dispatched
// by a resumed coordinator.
func (j *journal) complete(cell, cellFP string, payload json.RawMessage) error {
	return j.append(safeio.Record{
		Kind: "complete", Cell: cell, Fingerprint: cellFP,
		Digest: experiments.CellPayloadDigest(cellFP, payload), Payload: payload,
	}, true)
}

// lookup returns the journaled fingerprint and payload for a cell, if a
// verified completion exists (the latest one, when it completed twice).
func (j *journal) lookup(cell string) (fp string, payload json.RawMessage, ok bool) {
	rec, ok := j.log.Lookup(cell)
	return rec.Fingerprint, rec.Payload, ok
}

// resumable reports whether the journal was loaded from an existing,
// header-valid file.
func (j *journal) resumable() bool { return j.log.Resumed() }

// corruptRecords reports how many lines were skipped while loading.
func (j *journal) corruptRecords() int { return j.log.Corrupt() }

// close releases the journal file descriptor.
func (j *journal) close() error { return j.log.Close() }
