package safeio

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"sync"
)

// Record is one record of a Log: the union of the fields of the experiment
// checkpoint (ristretto.checkpoint/v1) and the fleet journal
// (ristretto.fleet-journal/v1). A field a record does not use is omitted
// from its JSON, so both formats marshal byte-for-byte as they always have.
type Record struct {
	Kind        string          `json:"kind"`
	Schema      string          `json:"schema,omitempty"`
	Tool        string          `json:"tool,omitempty"`
	Fingerprint string          `json:"fingerprint,omitempty"` // header: workload; fleet complete: cell
	Cell        string          `json:"cell,omitempty"`
	Worker      int             `json:"worker,omitempty"`
	Digest      string          `json:"digest,omitempty"`
	Payload     json.RawMessage `json:"payload,omitempty"`
}

// Log is an append-only file of CRC-framed records, one per line: an
// 8-hex-digit IEEE crc32 of the record's JSON, a space, the JSON, a
// newline. The first record is the header (Kind "header": schema, writing
// tool, workload fingerprint). Every Append is fsynced through an
// Appender, so a process killed between appends loses at most the record
// being written, and that torn line fails its crc on resume. Lookup
// returns the latest kept record for a cell, so a later duplicate wins.
// Safe for concurrent use.
type Log struct {
	ap      *Appender
	resumed bool
	corrupt int

	mu   sync.Mutex // guards kept; held across each append so kept follows file order
	kept map[string]Record
}

// OpenLog opens (or creates) the log at path through fsys (nil = OS).
// header is the log's header record.
//
// With resume false any existing file is truncated and header written.
// With resume true an existing file is scanned first. Every header record
// in it must match header's schema, tool and fingerprint, or OpenLog fails
// naming the field that differs. Every other record whose crc verifies is
// passed to classify, which reports whether it is resume state (keep) and
// whether it is valid at all (ok). Torn, bit-flipped and !ok records are
// skipped and counted as corrupt. A missing or empty file, or one with no
// valid header and no kept record, starts fresh; a file with kept records
// but no valid header is an error.
func OpenLog(fsys FS, path string, header Record, resume bool, classify func(Record) (keep, ok bool)) (*Log, error) {
	if fsys == nil {
		fsys = OS
	}
	l := &Log{kept: map[string]Record{}}
	if resume {
		if err := l.scan(fsys, path, header, classify); err != nil {
			return nil, err
		}
	}
	ap, err := OpenAppenderFS(fsys, path, !l.resumed)
	if err != nil {
		return nil, err
	}
	l.ap = ap
	if !l.resumed {
		if err := l.Append(header, false); err != nil {
			ap.Close()
			return nil, err
		}
	}
	return l, nil
}

// scan reads an existing log for resume, setting resumed when the file
// carries a header that matches.
func (l *Log) scan(fsys FS, path string, header Record, classify func(Record) (keep, ok bool)) error {
	f, err := fsys.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	sawHeader := false
	for sc.Scan() {
		rec, ok := decodeRecord(sc.Bytes())
		if !ok {
			l.corrupt++
			continue
		}
		if rec.Kind == "header" {
			for _, h := range [...]struct{ name, got, want string }{
				{"schema", rec.Schema, header.Schema},
				{"tool", rec.Tool, header.Tool},
				{"fingerprint", rec.Fingerprint, header.Fingerprint},
			} {
				if h.got != h.want {
					return fmt.Errorf("%s has %s %q, this run wants %q — rerun without -resume", path, h.name, h.got, h.want)
				}
			}
			sawHeader = true
			continue
		}
		switch keep, ok := classify(rec); {
		case !ok:
			l.corrupt++
		case keep:
			l.kept[rec.Cell] = rec
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	if !sawHeader && len(l.kept) > 0 {
		return fmt.Errorf("%s has records but no valid header — rerun without -resume", path)
	}
	l.resumed = sawHeader
	return nil
}

// decodeRecord parses one "crc json" line, rejecting torn or bit-flipped
// records.
func decodeRecord(line []byte) (rec Record, ok bool) {
	if len(line) < 10 || line[8] != ' ' {
		return rec, false
	}
	sum, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil || crc32.ChecksumIEEE(line[9:]) != uint32(sum) {
		return rec, false
	}
	err = json.Unmarshal(line[9:], &rec)
	return rec, err == nil
}

// Append encodes one record as a crc-framed line and makes it durable
// before returning. With keep set the record then becomes the one Lookup
// returns for its cell.
func (l *Log) Append(rec Record, keep bool) error {
	body, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.ap.Append(fmt.Appendf(nil, "%08x %s\n", crc32.ChecksumIEEE(body), body)); err != nil {
		return err
	}
	if keep {
		l.kept[rec.Cell] = rec
	}
	return nil
}

// Lookup returns the latest kept record for a cell, if any.
func (l *Log) Lookup(cell string) (Record, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec, ok := l.kept[cell]
	return rec, ok
}

// Cells reports how many distinct cells have a kept record.
func (l *Log) Cells() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.kept)
}

// Resumed reports whether OpenLog resumed an existing file with a valid
// header (rather than starting fresh).
func (l *Log) Resumed() bool { return l.resumed }

// Corrupt reports how many records the resume scan skipped as torn,
// bit-flipped or rejected by classify.
func (l *Log) Corrupt() int { return l.corrupt }

// Close releases the file. Records appended before Close are already
// durable; an Append after Close fails. Close is idempotent.
func (l *Log) Close() error { return l.ap.Close() }
