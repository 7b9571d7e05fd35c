package wal

import (
	"errors"
	"time"
)

// Runtime fault scheduler: the chaos-harness extension of FaultFS.
// Where Crash/FailWritesAfter model one terminal event at a chosen
// byte, the scheduler models the *transient* misbehavior a live server
// must ride out without restarting: a burst of write or sync errors
// triggered by IO count, a disk-full window, and injected IO latency.
// All knobs are safe to flip from a separate goroutine while the
// server is under load — that concurrency is the point of the chaos
// property suite (chaos_test.go in internal/server).

// ErrDiskFull is the error every Write returns while a disk-full
// window (SetDiskFull) is open.
var ErrDiskFull = errors.New("faultfs: no space left on device")

// faultTrigger arms a burst of count failing operations that opens
// after the next `after` successful operations. err == nil means
// disarmed.
type faultTrigger struct {
	after int64
	count int64
	err   error
}

// hit advances the trigger by one operation and returns the injected
// error, if this operation falls inside the burst.
func (t *faultTrigger) hit() error {
	if t.err == nil {
		return nil
	}
	if t.after > 0 {
		t.after--
		return nil
	}
	if t.count > 0 {
		t.count--
		err := t.err
		if t.count == 0 {
			t.err = nil
		}
		return err
	}
	t.err = nil
	return nil
}

// faultSched is the scheduler state hanging off a FaultFS, guarded by
// its mutex (latency is read before the lock and lives as an atomic on
// the FaultFS itself).
type faultSched struct {
	write faultTrigger
	sync  faultTrigger
	full  bool

	writeOps int64
	syncOps  int64
}

// FailWritesN arms a transient write fault: after the next `after`
// Write calls succeed, the following `count` Write calls fail with err
// (no bytes are written), then writes recover on their own. err == nil
// disarms.
func (fs *FaultFS) FailWritesN(after, count int64, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.sched.write = faultTrigger{after: after, count: count, err: err}
}

// FailSyncsN is FailWritesN for Sync and SyncDir: after the next
// `after` sync calls succeed, the following `count` fail with err and
// promote nothing to durable, then syncs recover.
func (fs *FaultFS) FailSyncsN(after, count int64, err error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.sched.sync = faultTrigger{after: after, count: count, err: err}
}

// SetDiskFull opens (true) or closes (false) a disk-full window: while
// open, every Write fails with ErrDiskFull and writes nothing; reads
// and syncs still work, as on a real full disk.
func (fs *FaultFS) SetDiskFull(on bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.sched.full = on
}

// SetLatency injects d of latency into every Write and Sync call
// (zero clears). The sleep happens outside the FS lock so injected
// slowness does not serialize unrelated operations.
func (fs *FaultFS) SetLatency(d time.Duration) {
	fs.latencyNs.Store(int64(d))
}

// ClearFaults disarms every scheduled fault: triggers, disk-full
// window, latency, and the legacy sticky write/sync errors. The
// end-of-run step of a chaos sweep, before asserting the server heals.
func (fs *FaultFS) ClearFaults() {
	fs.mu.Lock()
	fs.sched.write = faultTrigger{}
	fs.sched.sync = faultTrigger{}
	fs.sched.full = false
	fs.syncErr = nil
	fs.writeErr = nil
	fs.failAt = -1
	fs.mu.Unlock()
	fs.latencyNs.Store(0)
}

// sleepLatency applies injected IO latency; called before taking the
// FS lock.
func (fs *FaultFS) sleepLatency() {
	if d := fs.latencyNs.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}
