// Package wal implements the crash-safe durability layer of the link
// predictor: a segmented, CRC32C-checksummed write-ahead log of graph
// edges, whole-file-checksummed snapshots of the sketch store, and the
// recovery procedure that combines them — load the newest *valid*
// snapshot, then replay the WAL tail from the snapshot's sequence
// number, truncating at the first torn or corrupt record.
//
// The sketches themselves make this layer unusually cheap: MinHash
// register updates commute and are idempotent, and the degree counters
// are additive, so replaying the durable edge prefix in WAL order
// reconstructs a store *bit-identical* to one that ingested the same
// prefix live. There is no undo, no LSN-stamped pages — the WAL records
// the stream, and the stream is the state.
//
// All file I/O goes through the FS interface so the fault-injection
// harness (faultfs.go) can crash the "disk" at an arbitrary byte and
// recovery can be property-tested against every crash point.
package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is the mutable-file surface the WAL needs: ordinary writes, a
// durability barrier, and close.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// ReadAtCloser is a file opened for reading: in order, or at any offset.
// Snapshots are read in place (LoadNewestSnapshot), never whole.
type ReadAtCloser interface {
	io.ReadCloser
	io.ReaderAt
}

// FS abstracts the filesystem operations used by the WAL, snapshots,
// and recovery. OSFS is the production implementation; FaultFS is the
// in-memory fault-injection implementation used by the crash-recovery
// tests.
type FS interface {
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// OpenAppend opens an existing file for appending.
	OpenAppend(name string) (File, error)
	// Open opens name for reading.
	Open(name string) (ReadAtCloser, error)
	// ReadDir returns the file names in dir, sorted ascending.
	ReadDir(dir string) ([]string, error)
	// Stat returns the size of name in bytes.
	Stat(name string) (int64, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// Truncate cuts name to size bytes.
	Truncate(name string, size int64) error
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// SyncDir fsyncs the directory itself, making renames and creates
	// within it durable.
	SyncDir(dir string) error
}

// OSFS is the real-filesystem implementation of FS.
type OSFS struct{}

func (OSFS) Create(name string) (File, error) { return os.Create(name) }

func (OSFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0o644)
}

func (OSFS) Open(name string) (ReadAtCloser, error) { return os.Open(name) }

func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (OSFS) Stat(name string) (int64, error) {
	fi, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (OSFS) Remove(name string) error { return os.Remove(name) }

func (OSFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFileAtomic writes path through fsys with full crash-safety
// discipline: the content goes to a temp file in the same directory,
// the temp file is fsynced and closed, renamed over path, and the
// directory is fsynced so the rename itself is durable. A crash at any
// point leaves either the old file or the new one — never a torn or
// missing image.
func WriteFileAtomic(fsys FS, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: create %s: %w", tmp, err)
	}
	if err := write(f); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("wal: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("wal: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("wal: close %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("wal: rename %s: %w", path, err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("wal: fsync dir of %s: %w", path, err)
	}
	return nil
}

// AtomicWriteFile is WriteFileAtomic against the real filesystem — the
// hardened atomic-write helper shared by snapshots and the lpserver
// exit checkpoint.
func AtomicWriteFile(path string, write func(io.Writer) error) error {
	return WriteFileAtomic(OSFS{}, path, write)
}
