package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"slices"
	"time"
)

// WAL failure handling (DESIGN.md §2.12). Every failed write, flush,
// fsync or rotate calls failLocked, which opens a degraded episode, and
// repairLocked is the only way out of one:
//
//	healthy ──write/flush/fsync/rotate failure──▶ degraded
//	degraded: no record is written until a repair succeeds
//	degraded ──repairLocked succeeds──▶ healthy        (no restart required)
//
// A repair rescans the current segment, truncates it back to the
// *acked* prefix (everything a caller was told was appended — under
// FsyncAlways a record whose fsync failed was written but never
// acknowledged, and must not survive), reopens it for append, and
// fsyncs as an end-to-end probe of the write path. From attempt
// healRotateAfter+1 of an episode on it seals the segment at the acked
// prefix (fsyncing the cut) and starts a fresh one, which routes around
// a wedged file without abandoning durable records. A segment whose
// header is damaged is quarantined — renamed aside with a .quarantined
// suffix for forensics — and the log continues in a fresh segment. A
// repair that cannot open or read the segment leaves it alone and fails.
//
// Every log runs a healer goroutine, started by Open, that repairs with
// jittered exponential backoff (Options.Heal); Append, AppendFrame and
// Sync fail fast with ErrDegraded meanwhile (queries are unaffected —
// the log is read-only, not dead). Close stops the healer and repairs
// before its final sync, so a shutdown also cuts an unacknowledged
// record the healer has not reached.

// ErrDegraded is returned by Append, AppendFrame, and Sync while the
// log is degraded and the healer goroutine is repairing it. Callers
// should shed the write (the server maps it to 503 + Retry-After) and
// retry later; no part of a request that got ErrDegraded was logged.
var ErrDegraded = errors.New("wal: degraded, healing in progress")

// healRotateAfter is the number of failed repairs in an episode after
// which a repair stops reopening the damaged segment in place and
// instead seals it at the acked prefix and starts a fresh one.
const healRotateAfter = 2

// HealOptions tunes the healer goroutine's backoff. Zero fields, and a
// nil *HealOptions in Options, mean the defaults below.
type HealOptions struct {
	// Backoff is the delay before the first repair of a degraded
	// episode; later ones back off exponentially with jitter. Zero means
	// 100ms.
	Backoff time.Duration
	// MaxBackoff caps the repair delay. Zero means 5s.
	MaxBackoff time.Duration
}

// HealState is a point-in-time snapshot of the degraded episode,
// surfaced on /healthz and /metrics.
type HealState struct {
	// Degraded reports whether a degraded episode is open.
	Degraded bool `json:"degraded"`
	// Reason is the error that opened the current degraded episode.
	Reason string `json:"reason,omitempty"`
	// Since is when the current episode started.
	Since time.Time `json:"-"`
	// Attempts counts repairs tried in the current episode.
	Attempts int64 `json:"attempts"`
	// Heals counts completed degraded→healthy transitions (lifetime).
	Heals int64 `json:"heals"`
	// NextProbe is when the healer will repair next (zero when
	// healthy).
	NextProbe time.Time `json:"-"`
}

// HealState returns a snapshot of the degraded episode.
func (w *WAL) HealState() HealState {
	w.mu.Lock()
	defer w.mu.Unlock()
	hs := HealState{Heals: w.stats.Heals}
	if w.degraded {
		hs.Degraded = true
		hs.Reason = w.degReason
		hs.Since = w.degSince
		hs.Attempts = w.degAttempts
		hs.NextProbe = w.nextProbe
	}
	return hs
}

// failLocked opens a degraded episode for err, unless one is open, and
// wakes the healer; it returns err. Every failed write, flush, fsync or
// rotate calls it. Caller holds mu.
func (w *WAL) failLocked(err error) error {
	if w.degraded {
		return err
	}
	w.degraded = true
	w.degReason = err.Error()
	w.degSince = time.Now()
	w.degAttempts = 0
	select {
	case w.healWake <- struct{}{}:
	default:
	}
	return err
}

// readyLocked gates every append and sync: during a degraded episode it
// fails fast with ErrDegraded and leaves the repair to the healer.
// Caller holds mu.
func (w *WAL) readyLocked() error {
	if w.degraded {
		return fmt.Errorf("%w (%s)", ErrDegraded, w.degReason)
	}
	return nil
}

// healLoop runs the repairs of every degraded episode, with jittered
// exponential backoff. One goroutine per WAL, started by Open and
// stopped by Close.
func (w *WAL) healLoop() {
	defer close(w.healDone)
	opts := *w.opts.Heal
	for {
		select {
		case <-w.stopHeal:
			return
		case <-w.healWake:
		}
		for {
			w.mu.Lock()
			if !w.degraded || w.closed {
				w.mu.Unlock()
				break
			}
			d := healBackoff(opts, int(w.degAttempts))
			w.nextProbe = time.Now().Add(d)
			w.mu.Unlock()
			select {
			case <-w.stopHeal:
				return
			case <-time.After(d):
			}
			w.mu.Lock()
			if w.degraded && !w.closed {
				w.repairLocked() // a failure leaves the episode open
			}
			w.mu.Unlock()
		}
	}
}

// healBackoff returns the jittered exponential delay before repair
// number attempt (0-based): base<<attempt capped at MaxBackoff, then
// jittered into [d/2, d] so a fleet of healers does not probe in step.
func healBackoff(opts HealOptions, attempt int) time.Duration {
	d := opts.Backoff
	for i := 0; i < attempt && d < opts.MaxBackoff; i++ {
		d *= 2
	}
	if d > opts.MaxBackoff {
		d = opts.MaxBackoff
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// repairLocked is the one way out of a degraded episode, run by the
// healer, and by Close for an episode the healer has not ended: it cuts
// the current segment back to the acked prefix, reopens it and fsyncs —
// or, from attempt healRotateAfter+1 on, seals it there and continues
// in a fresh segment; a segment whose header is damaged is quarantined.
// Sequence numbers consumed by records it cuts stay consumed: the log
// tolerates gaps, none of those edges were acknowledged, and Open
// resumes after any number a snapshot was stamped with
// (Options.NextSeq). A failed repair leaves the episode open. Caller
// holds mu.
func (w *WAL) repairLocked() error {
	w.stats.HealAttempts++
	w.degAttempts++
	if err := w.reopenLocked(w.degAttempts > healRotateAfter); err != nil {
		return fmt.Errorf("wal: repair: %w", err)
	}
	w.dirty = false
	w.stats.DegradedSecs += time.Since(w.degSince).Seconds()
	w.stats.Heals++
	w.degraded = false
	w.degReason = ""
	w.nextProbe = time.Time{}
	return nil
}

// reopenLocked leaves the writer on a current segment that ends at the
// acked prefix, with the cut fsynced: the failed segment cut back and
// reopened, or a fresh segment when rotate is set or the failed one was
// quarantined. Caller holds mu.
func (w *WAL) reopenLocked(rotate bool) error {
	w.f.Close() // best-effort: the stream already failed
	seg := w.segments[len(w.segments)-1]
	path := filepath.Join(w.dir, seg.name)
	end, _, err := scanSegment(w.fsys, w.dir, seg, nil)
	switch {
	case errors.Is(err, errBadSegment):
		// The header is damaged: this is data loss, not a torn tail.
		// Preserve the bytes for forensics and move on; the acked records
		// inside are lost however it is handled.
		if err := w.fsys.Rename(path, path+".quarantined"); err != nil {
			return fmt.Errorf("quarantine %s: %w", path, err)
		}
		w.stats.Quarantined++
		return w.replaceSegmentLocked()
	case errors.Is(err, fs.ErrNotExist):
		// Quarantined by an earlier repair that could not start the
		// fresh segment.
		return w.replaceSegmentLocked()
	case err != nil:
		return err // a failed open or read says nothing of the bytes: retry
	}
	// Records past the acked prefix were written, but their caller saw
	// an error: they must not resurface on replay.
	end = min(end, w.acked)
	if size, serr := w.fsys.Stat(path); serr == nil && end < size {
		if err := w.fsys.Truncate(path, end); err != nil {
			return fmt.Errorf("truncate %s: %w", path, err)
		}
	}
	f, err := w.fsys.OpenAppend(path)
	if err != nil {
		return fmt.Errorf("reopen %s: %w", path, err)
	}
	w.f, w.segSize, w.acked = f, end, end
	w.bw.Reset(w.f)
	if rotate {
		// The segment keeps failing in place: seal it at the acked prefix
		// (rotateLocked fsyncs the cut first) and route appends to a
		// fresh, fsynced file.
		return w.rotateLocked()
	}
	// The fsync makes the cut durable and probes the write path end to
	// end: a repair only counts if the sync path works.
	return w.f.Sync()
}

// replaceSegmentLocked continues the log in a fresh segment in place of
// the current one, whose file is gone. The old entry leaves w.segments
// only once the fresh segment exists, so after a failed start the next
// repair finds it again. Caller holds mu.
func (w *WAL) replaceSegmentLocked() error {
	if err := w.newSegmentLocked(); err != nil {
		return err
	}
	w.segments = slices.Delete(w.segments, len(w.segments)-2, len(w.segments)-1)
	w.stats.Segments = len(w.segments)
	w.bw.Reset(w.f)
	w.stats.Rotations++
	return nil
}
