// Package safeio writes files crash-safely: content goes to a temporary
// file in the destination directory, is flushed and fsynced, and only then
// renamed over the target. A process killed mid-write (the chaos tests do
// exactly this) leaves either the old file or the new one — never a
// truncated hybrid. Manifest and tensor (.rstt) writers all go through
// here. Journals append instead: Appender fsyncs every record, and Log
// (log.go) is the one CRC-framed record log that both the experiment
// checkpoint and the fleet journal are built on.
//
// Every disk operation goes through the FS seam (see fs.go): the default
// is the OS passthrough, and internal/faultinject supplies a
// fault-injecting FS that makes the disk lie — ENOSPC, EIO, failed fsync,
// torn writes, bit rot — so the storage layers built on safeio can be
// adversarially tested without a special kernel.
package safeio

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with data. The parent directory must
// exist (callers that create paths on demand MkdirAll first).
func WriteFile(path string, data []byte, perm os.FileMode) error {
	return WriteFileFS(OS, path, data, perm)
}

// WriteFileFS is WriteFile through an explicit filesystem (nil = OS).
func WriteFileFS(fsys FS, path string, data []byte, perm os.FileMode) error {
	return WriteToFS(fsys, path, perm, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// WriteTo atomically replaces path with whatever write produces. The writer
// is buffered; flush, fsync and rename happen only if write returns nil,
// otherwise the temporary file is removed and the existing target is left
// untouched.
func WriteTo(path string, perm os.FileMode, write func(w io.Writer) error) error {
	return WriteToFS(OS, path, perm, write)
}

// WriteToFS is WriteTo through an explicit filesystem (nil = OS).
func WriteToFS(fsys FS, path string, perm os.FileMode, write func(w io.Writer) error) error {
	if fsys == nil {
		fsys = OS
	}
	dir := filepath.Dir(path)
	// The temp file must live in the destination directory: rename(2) is
	// only atomic within one filesystem.
	f, err := fsys.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		return cleanup(err)
	}
	if err := bw.Flush(); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Chmod(perm); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	syncDir(fsys, dir)
	return nil
}

// syncDir fsyncs the directory so the rename itself is durable. Best
// effort: some filesystems refuse directory fsync, and the rename already
// guarantees atomicity.
func syncDir(fsys FS, dir string) {
	d, err := fsys.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
