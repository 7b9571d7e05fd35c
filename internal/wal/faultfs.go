package wal

import (
	"bytes"
	"errors"
	"fmt"
	iofs "io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// FaultFS is the fault-injection harness behind the crash-recovery
// property tests: an in-memory FS that distinguishes *written* bytes
// from *durable* bytes and can fail, short-write, or "lose power" at
// an arbitrary point.
//
// The model: Write appends volatile bytes (visible to reads, like the
// OS page cache); Sync promotes a file's volatile bytes to durable;
// creates and renames are durable only once their directory is synced.
// Every written byte gets a global, monotonically increasing offset,
// so a test can replay an ingest once, pick any byte k ≤ TotalWritten,
// and Crash(k) — keeping durable bytes plus the volatile prefix
// written before k. That reproduces exactly the states a real disk can
// be in after power loss under ordered writeback: fsynced data
// survives, the in-flight tail is torn at k, later writes vanish, and
// un-fsynced renames roll back.
//
// After Crash the FS returns ErrCrashed from every operation until
// Restart, which flips it back to serving the survived state — the
// disk as the recovering process finds it.
type FaultFS struct {
	mu      sync.Mutex
	files   map[string]*memFile
	dirs    map[string]bool
	written int64 // global byte counter across all writes

	crashed  bool
	failAt   int64 // global offset at which writes start failing; -1 = never
	syncErr  error // injected Sync failure
	writeErr error // injected Write failure

	// Runtime fault scheduler (faultsched.go): transient error bursts,
	// disk-full windows, IO counters. latencyNs lives outside mu so the
	// injected sleep does not serialize the filesystem.
	sched     faultSched
	latencyNs atomic.Int64

	// Directory-entry operations not yet made durable by SyncDir:
	// reverted on Crash.
	pendingCreates map[string]bool
	pendingRenames []pendingRename
}

type pendingRename struct {
	oldName, newName string
	overwritten      *memFile // previous file at newName, nil if none
}

// memFile stores a file as a durable prefix plus volatile append-only
// chunks stamped with their global write offsets.
type memFile struct {
	durable  []byte
	volatile []volChunk
}

type volChunk struct {
	globalOff int64
	data      []byte
}

func (f *memFile) contents() []byte {
	out := append([]byte(nil), f.durable...)
	for _, c := range f.volatile {
		out = append(out, c.data...)
	}
	return out
}

func (f *memFile) size() int64 {
	n := int64(len(f.durable))
	for _, c := range f.volatile {
		n += int64(len(c.data))
	}
	return n
}

// ErrCrashed is returned by every FaultFS operation between Crash and
// Restart.
var ErrCrashed = errors.New("faultfs: filesystem crashed")

// NewFaultFS returns an empty fault-injection filesystem.
func NewFaultFS() *FaultFS {
	return &FaultFS{
		files:          make(map[string]*memFile),
		dirs:           make(map[string]bool),
		failAt:         -1,
		pendingCreates: make(map[string]bool),
	}
}

// TotalWritten returns the global byte counter — the crash axis.
func (fs *FaultFS) TotalWritten() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.written
}

// FailWritesAfter makes the write that crosses global offset n
// short-write to the boundary and fail, and all later writes fail —
// a fail-stop disk error without power loss (volatile data survives,
// the process keeps running). n = -1 disables.
func (fs *FaultFS) FailWritesAfter(n int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.failAt = n
}

// SetSyncError injects err into every Sync and SyncDir call (nil
// clears). Models an fsync failure: data stays readable but is not
// durable — the condition /healthz must degrade on.
func (fs *FaultFS) SetSyncError(err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.syncErr = err
}

// SetWriteError injects err into every Write call (nil clears).
func (fs *FaultFS) SetWriteError(err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.writeErr = err
}

// Crash simulates power loss: every file keeps its durable prefix plus
// any volatile bytes written before global offset keepVolatile;
// directory entries never made durable roll back (pending creates
// vanish, pending renames revert to the overwritten file). Until
// Restart, every operation returns ErrCrashed. Crash(0) keeps exactly
// the fsynced state; Crash(TotalWritten()) keeps everything written.
func (fs *FaultFS) Crash(keepVolatile int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	// Revert directory operations newest-first so chained renames undo
	// correctly, then drop pending creates.
	for i := len(fs.pendingRenames) - 1; i >= 0; i-- {
		pr := fs.pendingRenames[i]
		if f, ok := fs.files[pr.newName]; ok {
			fs.files[pr.oldName] = f
		}
		if pr.overwritten != nil {
			fs.files[pr.newName] = pr.overwritten
		} else {
			delete(fs.files, pr.newName)
		}
	}
	fs.pendingRenames = nil
	for name := range fs.pendingCreates {
		delete(fs.files, name)
	}
	fs.pendingCreates = make(map[string]bool)
	for _, f := range fs.files {
		kept := f.durable
		for _, c := range f.volatile {
			if c.globalOff >= keepVolatile {
				break
			}
			end := int64(len(c.data))
			if c.globalOff+end > keepVolatile {
				end = keepVolatile - c.globalOff
			}
			kept = append(kept, c.data[:end]...)
			if c.globalOff+int64(len(c.data)) > keepVolatile {
				break
			}
		}
		f.durable = kept
		f.volatile = nil
	}
	fs.crashed = true
}

// Restart brings the crashed filesystem back online, serving the state
// that survived the crash.
func (fs *FaultFS) Restart() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.crashed = false
	fs.failAt = -1
	fs.syncErr = nil
	fs.writeErr = nil
}

// faultFile is an open append handle on a FaultFS file.
type faultFile struct {
	fs   *FaultFS
	name string
}

func (f *faultFile) Write(p []byte) (int, error) {
	fs := f.fs
	fs.sleepLatency()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return 0, ErrCrashed
	}
	if fs.writeErr != nil {
		return 0, fs.writeErr
	}
	fs.sched.writeOps++
	if fs.sched.full {
		return 0, ErrDiskFull
	}
	if err := fs.sched.write.hit(); err != nil {
		return 0, err
	}
	mf, ok := fs.files[f.name]
	if !ok {
		return 0, fmt.Errorf("faultfs: write to removed file %s", f.name)
	}
	n := len(p)
	var failErr error
	if fs.failAt >= 0 && fs.written+int64(n) > fs.failAt {
		n = int(fs.failAt - fs.written)
		if n < 0 {
			n = 0
		}
		failErr = fmt.Errorf("faultfs: injected write failure at global offset %d", fs.failAt)
	}
	if n > 0 {
		mf.volatile = append(mf.volatile, volChunk{
			globalOff: fs.written,
			data:      append([]byte(nil), p[:n]...),
		})
		fs.written += int64(n)
	}
	return n, failErr
}

func (f *faultFile) Sync() error {
	fs := f.fs
	fs.sleepLatency()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return ErrCrashed
	}
	if fs.syncErr != nil {
		return fs.syncErr
	}
	fs.sched.syncOps++
	if err := fs.sched.sync.hit(); err != nil {
		return err
	}
	if mf, ok := fs.files[f.name]; ok {
		mf.durable = mf.contents()
		mf.volatile = nil
	}
	return nil
}

func (f *faultFile) Close() error { return nil }

// Create implements FS.
func (fs *FaultFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, ErrCrashed
	}
	if _, exists := fs.files[name]; !exists {
		fs.pendingCreates[name] = true
	}
	fs.files[name] = &memFile{}
	fs.dirs[filepath.Dir(name)] = true
	return &faultFile{fs: fs, name: name}, nil
}

// OpenAppend implements FS.
func (fs *FaultFS) OpenAppend(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, ErrCrashed
	}
	if _, ok := fs.files[name]; !ok {
		return nil, fmt.Errorf("faultfs: open %s: %w", name, iofs.ErrNotExist)
	}
	return &faultFile{fs: fs, name: name}, nil
}

// Open implements FS. The reader serves a copy of the file's contents
// as they are at Open.
func (fs *FaultFS) Open(name string) (ReadAtCloser, error) {
	data, err := fs.ReadFile(name)
	if err != nil {
		return nil, err
	}
	return memReader{bytes.NewReader(data)}, nil
}

// memReader is a FaultFS file opened for reading.
type memReader struct{ *bytes.Reader }

func (memReader) Close() error { return nil }

// ReadFile returns the full contents of name.
func (fs *FaultFS) ReadFile(name string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, ErrCrashed
	}
	mf, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("faultfs: read %s: %w", name, iofs.ErrNotExist)
	}
	return mf.contents(), nil
}

// ReadDir implements FS.
func (fs *FaultFS) ReadDir(dir string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, ErrCrashed
	}
	if !fs.dirs[dir] {
		return nil, fmt.Errorf("faultfs: read dir %s: directory does not exist", dir)
	}
	var names []string
	for name := range fs.files {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// Stat implements FS.
func (fs *FaultFS) Stat(name string) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return 0, ErrCrashed
	}
	mf, ok := fs.files[name]
	if !ok {
		return 0, fmt.Errorf("faultfs: stat %s: %w", name, iofs.ErrNotExist)
	}
	return mf.size(), nil
}

// Rename implements FS. The new directory entry is volatile until
// SyncDir; Crash before that reverts it.
func (fs *FaultFS) Rename(oldname, newname string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return ErrCrashed
	}
	mf, ok := fs.files[oldname]
	if !ok {
		return fmt.Errorf("faultfs: rename %s: %w", oldname, iofs.ErrNotExist)
	}
	fs.pendingRenames = append(fs.pendingRenames, pendingRename{
		oldName:     oldname,
		newName:     newname,
		overwritten: fs.files[newname],
	})
	fs.files[newname] = mf
	delete(fs.files, oldname)
	// The rename consumed a pending create of the old name, if any: the
	// *new* name is now the entry whose durability is in question.
	if fs.pendingCreates[oldname] {
		delete(fs.pendingCreates, oldname)
	}
	return nil
}

// Remove implements FS.
func (fs *FaultFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return ErrCrashed
	}
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("faultfs: remove %s: %w", name, iofs.ErrNotExist)
	}
	delete(fs.files, name)
	delete(fs.pendingCreates, name)
	return nil
}

// Truncate implements FS.
func (fs *FaultFS) Truncate(name string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return ErrCrashed
	}
	mf, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("faultfs: truncate %s: %w", name, iofs.ErrNotExist)
	}
	data := mf.contents()
	if size > int64(len(data)) {
		return fmt.Errorf("faultfs: truncate %s beyond end (size %d > %d)", name, size, len(data))
	}
	// Post-truncate content counts as durable: recovery truncation runs
	// before new appends and is itself fsynced by segment handling.
	mf.durable = data[:size]
	mf.volatile = nil
	return nil
}

// MkdirAll implements FS.
func (fs *FaultFS) MkdirAll(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return ErrCrashed
	}
	for d := dir; ; d = filepath.Dir(d) {
		fs.dirs[d] = true
		if parent := filepath.Dir(d); parent == d || parent == "." || parent == string(filepath.Separator) {
			break
		}
	}
	return nil
}

// SyncDir implements FS: makes pending creates and renames under dir
// durable.
func (fs *FaultFS) SyncDir(dir string) error {
	fs.sleepLatency()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return ErrCrashed
	}
	if fs.syncErr != nil {
		return fs.syncErr
	}
	fs.sched.syncOps++
	if err := fs.sched.sync.hit(); err != nil {
		return err
	}
	for name := range fs.pendingCreates {
		if filepath.Dir(name) == dir {
			delete(fs.pendingCreates, name)
		}
	}
	kept := fs.pendingRenames[:0]
	for _, pr := range fs.pendingRenames {
		if filepath.Dir(pr.newName) != dir {
			kept = append(kept, pr)
		}
	}
	fs.pendingRenames = kept
	return nil
}

// Dump returns the names and sizes of all files, for test diagnostics.
func (fs *FaultFS) Dump() string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var names []string
	for name := range fs.files {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		f := fs.files[name]
		fmt.Fprintf(&b, "%s: %d bytes (%d durable)\n", name, f.size(), len(f.durable))
	}
	return b.String()
}
