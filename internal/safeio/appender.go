package safeio

import (
	"bufio"
	"errors"
	"os"
	"path/filepath"
	"sync"
)

// Appender is the append-side companion to WriteFile: an open journal file
// whose every Append is flushed and fsynced before returning, so a process
// killed between appends loses at most the record being written. Torn
// trailing records are the reader's problem by design — Log, layered on
// top, guards each record with a CRC and skips what does not verify.
//
// Appender is safe for concurrent use; records from concurrent Appends
// never interleave.
type Appender struct {
	mu     sync.Mutex
	f      File
	w      *bufio.Writer
	path   string
	closed bool
}

// OpenAppender opens (or creates) path for appending. With truncate true
// any existing content is discarded first — the fresh-run case; with
// truncate false existing bytes are preserved — the resume case. The
// parent directory is created as needed.
func OpenAppender(path string, truncate bool) (*Appender, error) {
	return OpenAppenderFS(OS, path, truncate)
}

// OpenAppenderFS is OpenAppender through an explicit filesystem (nil = OS).
func OpenAppenderFS(fsys FS, path string, truncate bool) (*Appender, error) {
	if fsys == nil {
		fsys = OS
	}
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if truncate {
		flags |= os.O_TRUNC
	}
	f, err := fsys.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	return &Appender{f: f, w: bufio.NewWriter(f), path: path}, nil
}

// Append writes one record and makes it durable (flush + fsync) before
// returning. The caller frames its own records (typically one line each).
func (a *Appender) Append(record []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return errors.New("safeio: appender closed")
	}
	if _, err := a.w.Write(record); err != nil {
		return err
	}
	if err := a.w.Flush(); err != nil {
		return err
	}
	return a.f.Sync()
}

// Path returns the file being appended to.
func (a *Appender) Path() string { return a.path }

// Close releases the descriptor. Records appended before Close are already
// durable. Close is idempotent.
func (a *Appender) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil
	}
	a.closed = true
	if err := a.w.Flush(); err != nil {
		a.f.Close()
		return err
	}
	return a.f.Close()
}
