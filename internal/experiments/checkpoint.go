package experiments

import (
	"encoding/json"
	"errors"
	"fmt"

	"ristretto/internal/safeio"
)

// CheckpointSchema identifies the journal file format. Bump on incompatible
// change.
const CheckpointSchema = "ristretto.checkpoint/v1"

// Journal is an append-only checkpoint file recording completed sweep
// cells: a safeio.Log whose header carries the schema, the writing tool and
// the workload fingerprint, and whose every later record is a completed
// cell keyed by a stable string with an opaque JSON payload. Each record is
// fsynced when Append returns, so a SIGKILL between records loses at most
// the record being written, and a torn final line fails its crc and is
// skipped on resume instead of poisoning the run.
type Journal struct{ log *safeio.Log }

// OpenJournal opens (or creates) the checkpoint file at path for the given
// tool and workload fingerprint. With resume false any existing file is
// truncated and a fresh header written. With resume true an existing file is
// validated — schema, tool and fingerprint must match or an error tells the
// user to rerun without -resume — and its valid cell records become
// available through Lookup, a later record of a cell superseding an earlier
// one; corrupt or truncated lines are skipped and counted. A missing file
// with resume true degrades to a fresh journal.
func OpenJournal(path, tool, fingerprint string, resume bool) (*Journal, error) {
	hdr := safeio.Record{Kind: "header", Schema: CheckpointSchema, Tool: tool, Fingerprint: fingerprint}
	l, err := safeio.OpenLog(nil, path, hdr, resume, func(rec safeio.Record) (keep, ok bool) {
		return rec.Kind == "cell", rec.Kind == "cell"
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: checkpoint: %w", err)
	}
	return &Journal{log: l}, nil
}

// Append journals a completed cell under its stable key. The payload is
// marshalled to JSON; the record is durable (fsynced) when Append returns.
func (j *Journal) Append(cell string, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	return j.log.Append(safeio.Record{Kind: "cell", Cell: cell, Payload: raw}, true)
}

// Lookup returns the journaled payload for a cell key, if present.
func (j *Journal) Lookup(cell string) (json.RawMessage, bool) {
	rec, ok := j.log.Lookup(cell)
	return rec.Payload, ok
}

// Resumable reports whether the journal was loaded from an existing,
// header-valid file (i.e. this run is a resume).
func (j *Journal) Resumable() bool { return j.log.Resumed() }

// Cells reports how many distinct completed cells the journal holds.
func (j *Journal) Cells() int { return j.log.Cells() }

// CorruptRecords reports how many lines were skipped as torn or corrupt
// while loading.
func (j *Journal) CorruptRecords() int { return j.log.Corrupt() }

// Close flushes and closes the journal file. Records appended before Close
// are already durable; Close exists to release the descriptor.
func (j *Journal) Close() error { return j.log.Close() }

// resultJSON is the journal payload for a []*Result job: the Result struct
// with its error flattened to a string so it round-trips through JSON and
// renders identically ("error: <msg>") after resume.
type resultJSON struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  string     `json:"notes,omitempty"`
	Err    string     `json:"err,omitempty"`
}

// encodeResults converts a job's results into their journal payload.
func encodeResults(rs []*Result) []resultJSON {
	out := make([]resultJSON, len(rs))
	for i, r := range rs {
		out[i] = resultJSON{ID: r.ID, Title: r.Title, Header: r.Header, Rows: r.Rows, Notes: r.Notes}
		if r.Err != nil {
			out[i].Err = r.Err.Error()
		}
	}
	return out
}

// decodeResults reverses encodeResults.
func decodeResults(raw json.RawMessage) ([]*Result, error) {
	var enc []resultJSON
	if err := json.Unmarshal(raw, &enc); err != nil {
		return nil, err
	}
	out := make([]*Result, len(enc))
	for i, e := range enc {
		r := &Result{ID: e.ID, Title: e.Title, Header: e.Header, Rows: e.Rows, Notes: e.Notes}
		if e.Err != "" {
			r.Err = errors.New(e.Err)
		}
		out[i] = r
	}
	return out, nil
}
