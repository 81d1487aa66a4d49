package safeio

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var testHeader = Record{Kind: "header", Schema: "test.log/v1", Tool: "tool", Fingerprint: "fp"}

// classify keeps "put" records, accepts "note" records without keeping
// them, and rejects every other kind.
func classify(rec Record) (keep, ok bool) {
	switch rec.Kind {
	case "put":
		return true, true
	case "note":
		return false, true
	}
	return false, false
}

// openTest opens the log at path with testHeader and classify.
func openTest(t *testing.T, path string, resume bool) (*Log, error) {
	t.Helper()
	l, err := OpenLog(nil, path, testHeader, resume, classify)
	if err == nil {
		t.Cleanup(func() { l.Close() })
	}
	return l, err
}

// payload returns the kept payload for cell, or "" when none is kept.
func payload(l *Log, cell string) string {
	rec, _ := l.Lookup(cell)
	return string(rec.Payload)
}

func put(cell, payload string) Record {
	return Record{Kind: "put", Cell: cell, Payload: json.RawMessage(payload)}
}

// TestLogFramingAndResume: a fresh log starts with its header, every
// record is one "crc8hex json" line, and both appends and a resume keep
// the latest record of a cell.
func TestLogFramingAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nested", "x.log")
	l, err := openTest(t, path, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{put("a", "1"), {Kind: "note", Cell: "b", Worker: 2}, put("a", "2")} {
		if err := l.Append(rec, rec.Kind == "put"); err != nil {
			t.Fatal(err)
		}
	}
	if l.Cells() != 1 || payload(l, "a") != "2" {
		t.Fatalf("after appends: cells=%d a=%q, want 1 and the later record", l.Cells(), payload(l, "a"))
	}
	l.Close()
	if err := l.Append(put("late", "0"), true); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	got, _ := os.ReadFile(path)
	want := ""
	for _, body := range []string{
		`{"kind":"header","schema":"test.log/v1","tool":"tool","fingerprint":"fp"}`,
		`{"kind":"put","cell":"a","payload":1}`,
		`{"kind":"note","cell":"b","worker":2}`,
		`{"kind":"put","cell":"a","payload":2}`,
	} {
		want += fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE([]byte(body)), body)
	}
	if string(got) != want {
		t.Fatalf("log bytes:\n%s\nwant:\n%s", got, want)
	}

	l2, err := openTest(t, path, true)
	if err != nil {
		t.Fatal(err)
	}
	if !l2.Resumed() || l2.Corrupt() != 0 || l2.Cells() != 1 || payload(l2, "a") != "2" {
		t.Fatalf("resume: resumed=%v corrupt=%d cells=%d a=%q", l2.Resumed(), l2.Corrupt(), l2.Cells(), payload(l2, "a"))
	}
	if err := l2.Append(put("c", "3"), true); err != nil {
		t.Fatal(err)
	}
	if after, _ := os.ReadFile(path); !strings.HasPrefix(string(after), want) {
		t.Fatal("resume did not preserve the existing records")
	}
}

// TestLogHeaderMismatchNamesField: each header field that differs refuses
// the resume with an error naming the field and the way out.
func TestLogHeaderMismatchNamesField(t *testing.T) {
	for field, hdr := range map[string]Record{
		"schema":      {Kind: "header", Schema: "test.log/v2", Tool: "tool", Fingerprint: "fp"},
		"tool":        {Kind: "header", Schema: "test.log/v1", Tool: "other", Fingerprint: "fp"},
		"fingerprint": {Kind: "header", Schema: "test.log/v1", Tool: "tool", Fingerprint: "fp2"},
	} {
		path := filepath.Join(t.TempDir(), "x.log")
		l, err := OpenLog(nil, path, hdr, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		_, err = openTest(t, path, true)
		if err == nil || !strings.Contains(err.Error(), " "+field+" ") || !strings.Contains(err.Error(), "rerun without -resume") {
			t.Errorf("%s mismatch: err = %v", field, err)
		}
	}
}

// TestLogStartsFresh: a missing file, an empty one and a headerless one
// holding no kept record all start a fresh log with a new header.
func TestLogStartsFresh(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.log")
	notesOnly := filepath.Join(dir, "notes.log")
	os.WriteFile(empty, nil, 0o644)
	l, err := openTest(t, notesOnly, false)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Kind: "note", Cell: "x"}, false)
	l.Close()
	data, _ := os.ReadFile(notesOnly)
	os.WriteFile(notesOnly, data[strings.IndexByte(string(data), '\n')+1:], 0o644) // drop the header

	for _, path := range []string{filepath.Join(dir, "missing.log"), empty, notesOnly} {
		l, err := openTest(t, path, true)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if l.Resumed() || l.Cells() != 0 {
			t.Fatalf("%s: resumed=%v cells=%d, want a fresh log", filepath.Base(path), l.Resumed(), l.Cells())
		}
		if got, _ := os.ReadFile(path); strings.Count(string(got), "\n") != 1 || !strings.Contains(string(got), `"kind":"header"`) {
			t.Fatalf("%s: fresh log holds %q, want only the header", filepath.Base(path), got)
		}
	}
}

// TestLogHeaderlessStateRefused: records that replay keeps, with no valid
// header, refuse the resume and leave the file untouched.
func TestLogHeaderlessStateRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, err := openTest(t, path, false)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(put("a", "1"), true)
	l.Close()
	data, _ := os.ReadFile(path)
	data[0] ^= 0x01 // the header's crc no longer verifies
	os.WriteFile(path, data, 0o644)

	if _, err := openTest(t, path, true); err == nil || !strings.Contains(err.Error(), "no valid header") {
		t.Fatalf("headerless state resumed: %v", err)
	}
	if after, _ := os.ReadFile(path); string(after) != string(data) {
		t.Fatal("refused resume modified the file")
	}
}

// TestLogCorruptRecordsSkipped: a bad crc, a crc-valid line that is not
// JSON, a record replay rejects, a short line and a torn tail are each
// skipped and counted; the valid records around them survive.
func TestLogCorruptRecordsSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, err := openTest(t, path, false)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(put("a", "1"), true)
	l.Append(Record{Kind: "unknown", Cell: "u"}, false)
	l.Close()
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString("deadbeef {\"kind\":\"put\",\"cell\":\"b\",\"payload\":2}\n")
	fmt.Fprintf(f, "%08x not json\n", crc32.ChecksumIEEE([]byte("not json")))
	f.WriteString("short\n")
	f.WriteString(`1234abcd {"kind":"put","ce`) // torn, no newline
	f.Close()

	l2, err := openTest(t, path, true)
	if err != nil {
		t.Fatal(err)
	}
	if !l2.Resumed() || l2.Corrupt() != 5 || l2.Cells() != 1 || payload(l2, "a") != "1" {
		t.Fatalf("resumed=%v corrupt=%d cells=%d a=%q, want true/5/1/1", l2.Resumed(), l2.Corrupt(), l2.Cells(), payload(l2, "a"))
	}
}
