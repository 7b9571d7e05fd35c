package wal

import (
	"fmt"
	"io"
	"sync"
	"time"

	"linkpred/internal/stream"
)

// Durable ties a WAL to a live store: every ingested batch is appended
// to the log *before* it is applied, and checkpoints quiesce ingest so
// each snapshot corresponds to an exact WAL sequence number.
//
// The locking discipline is the whole correctness argument. Ingest
// holds the read side while it appends and applies, so any edge the
// store has absorbed is also in the log. Checkpoint holds the write
// side, so when it runs there is no in-flight batch: the store state
// equals exactly the WAL prefix [1, LastSeq], which is the sequence
// number the snapshot is stamped with. Concurrent ingests may append
// and apply in different interleavings. On a uniform insert-only store
// that does not matter: MinHash register updates commute and degree
// counters are additive, so the quiesced state equals sequential ingest
// of the log prefix. Stores whose folding depends on order (tiered
// promotion, windowed rotation, dynamic insert/delete, triangle
// tracking) can end up in a state that replay in log order does not
// rebuild.
type Durable struct {
	w    *WAL
	fsys FS
	dir  string
	kind Kind

	mu       sync.RWMutex          // read: ingest; write: checkpoint and restore quiesce
	snapshot func(io.Writer) error // guarded by mu; Restore replaces it

	ckptMu      sync.Mutex
	checkpoints int64
	ckptErrs    int64
	lastCkptSeq uint64
	lastCkptErr error

	stop chan struct{}
	done chan struct{}
}

// NewDurable wraps an open WAL. snapshot must write a complete store
// image (it runs with ingest quiesced); kind tags appended records.
// dir is where snapshots live — conventionally the WAL directory.
func NewDurable(w *WAL, dir string, kind Kind, snapshot func(io.Writer) error) *Durable {
	return &Durable{w: w, fsys: w.fsys, dir: dir, kind: kind, snapshot: snapshot}
}

// WAL returns the underlying log (for metrics).
func (d *Durable) WAL() *WAL { return d.w }

// Ingest logs edges as a record of the log's insert kind and then
// applies them: IngestRecord(kind, nil, edges, apply) with the kind
// NewDurable was given.
func (d *Durable) Ingest(edges []stream.Edge, apply func([]stream.Edge)) error {
	return d.IngestRecord(d.kind, nil, edges, apply)
}

// IngestRecord logs one batch and then applies it to the store via
// apply. kind is the log's insert kind or KindDelete, which any log may
// interleave with its inserts (apply then routes the batch to the
// store's delete path). frame, when non-nil, is the batch as a client
// sent it — the validated frame FrameReader.Next returned with kind and
// edges — and is appended as received (seq and crc patched in place, no
// re-encode); otherwise edges are encoded. The batch is acknowledged
// (nil error) only after the WAL append succeeded under the configured
// fsync policy; on append failure the batch is *not* applied, keeping
// the store at the durable prefix.
func (d *Durable) IngestRecord(kind Kind, frame []byte, edges []stream.Edge, apply func([]stream.Edge)) error {
	if len(edges) == 0 {
		return nil
	}
	if kind != d.kind && kind != KindDelete {
		return fmt.Errorf("wal: record kind %d does not match the log's kind %d", kind, d.kind)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	var err error
	if frame != nil {
		_, err = d.w.AppendFrame(frame)
	} else {
		_, err = d.w.Append(kind, edges)
	}
	if err != nil {
		return err
	}
	apply(edges)
	return nil
}

// Checkpoint quiesces ingest, syncs the WAL, writes a snapshot stamped
// with the current last sequence number, and prunes WAL segments and
// older snapshots the new image covers. A checkpoint with no new edges
// since the last one is a no-op.
func (d *Durable) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.checkpointLocked()
	d.recordCheckpoint(err)
	return err
}

func (d *Durable) checkpointLocked() error {
	if err := d.w.Sync(); err != nil {
		return fmt.Errorf("checkpoint sync: %w", err)
	}
	seq := d.w.LastSeq()
	d.ckptMu.Lock()
	last := d.lastCkptSeq
	d.ckptMu.Unlock()
	if seq == last && d.checkpointsTaken() > 0 {
		return nil
	}
	if err := WriteSnapshot(d.fsys, d.dir, seq, d.snapshot); err != nil {
		return err
	}
	return d.pruneLocked(seq)
}

// pruneLocked drops the log segments and older snapshots that the
// snapshot at seq covers and records it as the latest checkpoint.
func (d *Durable) pruneLocked(seq uint64) error {
	if _, err := d.w.Prune(seq); err != nil {
		return err
	}
	if _, err := PruneSnapshots(d.fsys, d.dir, seq); err != nil {
		return err
	}
	d.ckptMu.Lock()
	d.checkpoints++
	d.lastCkptSeq = seq
	d.ckptMu.Unlock()
	return nil
}

// recordCheckpoint keeps a checkpoint's outcome for Healthy and Stats.
func (d *Durable) recordCheckpoint(err error) {
	d.ckptMu.Lock()
	d.lastCkptErr = err
	if err != nil {
		d.ckptErrs++
	}
	d.ckptMu.Unlock()
}

// Restore replaces the store the log continues from. With ingest
// quiesced it writes save's image as the snapshot at the log's last
// sequence number, even when nothing was logged since the last
// checkpoint, and only once that snapshot is durable calls swap, which
// must install the replacement as the store that later batches apply
// to. From then on checkpoints snapshot through save. Recovery then
// starts from the replacement and replays only the batches logged after
// it. On error swap is not called and nothing changed. A failure to
// prune what the new snapshot covers is kept as a checkpoint error: the
// replacement is already in place.
func (d *Durable) Restore(save func(io.Writer) error, swap func()) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	seq := d.w.LastSeq()
	if err := WriteSnapshot(d.fsys, d.dir, seq, save); err != nil {
		return err
	}
	swap()
	d.snapshot = save
	d.recordCheckpoint(d.pruneLocked(seq))
	return nil
}

func (d *Durable) checkpointsTaken() int64 {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	return d.checkpoints
}

// StartCheckpointer begins periodic background checkpoints every
// interval. Errors are recorded (Healthy reports them) and retried on
// the next tick. Stop it with Close.
func (d *Durable) StartCheckpointer(interval time.Duration) {
	if d.stop != nil || interval <= 0 {
		return
	}
	d.stop = make(chan struct{})
	d.done = make(chan struct{})
	go func() {
		defer close(d.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-t.C:
				d.Checkpoint() // outcome recorded for Healthy
			}
		}
	}()
}

// Close stops the background checkpointer, takes a final checkpoint,
// and closes the WAL. The returned error is the first failure; the log
// is closed regardless.
func (d *Durable) Close() error {
	if d.stop != nil {
		close(d.stop)
		<-d.done
		d.stop = nil
	}
	err := d.Checkpoint()
	if cerr := d.w.Close(); err == nil {
		err = cerr
	}
	return err
}

// Healthy reports whether the durability pipeline is intact: the WAL is
// out of a degraded episode and the last checkpoint succeeded. When
// not, reason says which failed — the store still serves, but /healthz
// degrades.
func (d *Durable) Healthy() (ok bool, reason string) {
	if ok, reason = d.w.Healthy(); !ok {
		return false, reason
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if d.lastCkptErr != nil {
		return false, fmt.Sprintf("last checkpoint failed: %v", d.lastCkptErr)
	}
	return true, ""
}

// DurableStats is the /metrics view of the durability pipeline.
type DurableStats struct {
	WAL               Stats  `json:"wal"`
	Checkpoints       int64  `json:"checkpoints"`
	CheckpointErrors  int64  `json:"checkpoint_errors"`
	LastCheckpointSeq uint64 `json:"last_checkpoint_seq"`
}

// Stats returns a snapshot of the WAL and checkpoint counters.
func (d *Durable) Stats() DurableStats {
	d.ckptMu.Lock()
	s := DurableStats{
		Checkpoints:       d.checkpoints,
		CheckpointErrors:  d.ckptErrs,
		LastCheckpointSeq: d.lastCkptSeq,
	}
	d.ckptMu.Unlock()
	s.WAL = d.w.Stats()
	return s
}

// RecoverResult describes what recovery found: which snapshot seeded
// the store and how much WAL tail was replayed on top of it.
type RecoverResult struct {
	SnapshotSeq      uint64       `json:"snapshot_seq"`
	SnapshotLoaded   bool         `json:"snapshot_loaded"`
	SkippedSnapshots []string     `json:"skipped_snapshots,omitempty"`
	Replay           ReplayResult `json:"replay"`
}

// LastSeq returns the sequence number of the last recovered edge.
func (r RecoverResult) LastSeq() uint64 {
	if r.Replay.LastSeq > r.SnapshotSeq {
		return r.Replay.LastSeq
	}
	return r.SnapshotSeq
}

// BatchedReplayOptions tunes RecoverBatched.
type BatchedReplayOptions struct {
	// BatchEdges is the flush threshold: consecutive same-kind records
	// accumulate until the batch holds at least this many edges (or the
	// kind changes, or the log ends). <= 0 selects the default, 16384 —
	// large enough that one batched ingest call amortizes its hashing
	// and shard locking over many records.
	BatchEdges int
}

// defaultReplayBatchEdges is the RecoverBatched flush threshold when
// BatchedReplayOptions.BatchEdges is unset.
const defaultReplayBatchEdges = 16384

// RecoverBatched is Recover with record coalescing for batched replay:
// consecutive records of the same kind accumulate into one large batch
// that is handed to applyBatch. A kind change flushes first — the
// ordering barrier that keeps every register's op sequence in log order
// when KindDelete records interleave with inserts; stores without
// deletions never hit it. The edges slice passed to applyBatch is
// reused between calls: applyBatch must not retain it after it returns.
//
// Snapshot fallback and torn-tail handling are exactly Recover's.
func RecoverBatched(fsys FS, dir string, load func(io.Reader) error, applyBatch func(Kind, []stream.Edge) error, opts BatchedReplayOptions) (RecoverResult, error) {
	limit := opts.BatchEdges
	if limit <= 0 {
		limit = defaultReplayBatchEdges
	}
	var (
		pending []stream.Edge
		kind    Kind
	)
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		err := applyBatch(kind, pending)
		pending = pending[:0]
		return err
	}
	res, err := Recover(fsys, dir, load, func(rec Record) error {
		if rec.Kind != kind {
			if err := flush(); err != nil {
				return err
			}
			kind = rec.Kind
		}
		pending = append(pending, rec.Edges...)
		if len(pending) >= limit {
			return flush()
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	return res, flush()
}

// Recover rebuilds store state from dir: it loads the newest snapshot
// that passes its checksum (calling load with the image), then replays
// the WAL tail after the snapshot's sequence number (calling apply per
// record, in append order). Corrupt newest snapshots fall back to
// older ones — unless the checkpoint that wrote one has since pruned the
// log it covered (see checkLogCovers); a torn or corrupt WAL tail is
// truncated at replay, not fatal. After Recover, open the log for
// appending with Open and Options.NextSeq = result.LastSeq()+1.
func Recover(fsys FS, dir string, load func(io.Reader) error, apply func(Record) error) (RecoverResult, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	var res RecoverResult
	if err := fsys.MkdirAll(dir); err != nil {
		return res, fmt.Errorf("wal: create dir %s: %w", dir, err)
	}
	seq, skipped, err := LoadNewestSnapshot(fsys, dir, load)
	res.SkippedSnapshots = skipped
	switch {
	case err == nil:
		res.SnapshotSeq = seq
		res.SnapshotLoaded = true
	case err == ErrNoSnapshot:
		// First boot, or every snapshot was corrupt: replay from the
		// beginning of the log.
	default:
		return res, err
	}
	if err := checkLogCovers(fsys, dir, res.SnapshotSeq, skipped); err != nil {
		return res, err
	}
	res.Replay, err = Replay(fsys, dir, res.SnapshotSeq, apply)
	if err != nil {
		return res, err
	}
	return res, nil
}

// checkLogCovers fails when falling back past the skipped snapshots
// would lose acknowledged edges. A checkpoint prunes every log segment
// its snapshot covers and every older snapshot, so once a snapshot newer
// than the one recovery loaded (seq loaded, 0 for none) is skipped as
// unreadable or corrupt, the log must still start at loaded+1 for the
// replay to restore what that snapshot held. Gaps inside the log, left
// by appends that failed and were never acknowledged, stay legal.
func checkLogCovers(fsys FS, dir string, loaded uint64, skipped []string) error {
	var newest uint64
	var newestName string
	for _, name := range skipped {
		if seq, ok := parseSnapName(name); ok && seq > newest {
			newest, newestName = seq, name
		}
	}
	if newest <= loaded {
		return nil
	}
	segs, err := listSegments(fsys, dir)
	if err != nil {
		return fmt.Errorf("wal: list %s: %w", dir, err)
	}
	if len(segs) > 0 && segs[0].firstSeq <= loaded+1 {
		return nil
	}
	logState := "the log is empty"
	if len(segs) > 0 {
		logState = fmt.Sprintf("the log starts at seq %d", segs[0].firstSeq)
	}
	return fmt.Errorf("wal: snapshot %s (seq %d) is unreadable or corrupt and %s, so recovering from seq %d would lose acknowledged edges; restore the snapshot or the pruned log segments",
		newestName, newest, logState, loaded)
}
