package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"linkpred/internal/stream"
)

// WAL format. A log is a directory of segment files named
// wal-<firstSeq, 16 hex digits>.seg, rotated when a segment exceeds
// Options.SegmentBytes. Sequence numbers count *edges*, starting at 1,
// and are monotonic across segments; the name of a segment is the
// sequence number of its first edge, so pruning and replay can skip
// whole segments without opening them.
//
// Byte layout (all little-endian; crc is CRC32C/Castagnoli):
//
//	segment  = header record…
//	header   = magic "LPWL" | version u32 | firstSeq u64            (16 bytes)
//	record   = crc u32 | len u32 | seq u64 | payload                (16 + len bytes)
//	payload  = kind u8 | count u32 | count × edge
//	edge     = u u64 | v u64 | t i64                                (24 bytes)
//
// record.crc covers len, seq, and payload — everything after itself —
// so a torn write (short record) and a bit flip are both detected.
// record.seq is the sequence number of the record's first edge; the
// record covers [seq, seq+count). Recovery truncates the log at the
// first record that is short, fails its CRC, or has an inconsistent
// length, and the edges before that point are exactly the durable
// prefix of the stream.

const (
	segMagic      = "LPWL"
	segVersion    = 1
	segHeaderSize = 16
	recHeaderSize = 16
	edgeSize      = 24

	// maxRecordEdges bounds one record; larger appends are split. Keeps
	// both the writer's scratch buffer and the replayer's allocation
	// per record bounded (~1.5 MiB).
	maxRecordEdges = 1 << 16
	// maxRecordPayload rejects implausible length fields during replay
	// before any allocation happens.
	maxRecordPayload = 5 + edgeSize*maxRecordEdges
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Kind tags a record with the interpretation of its edges: an
// undirected edge {u, v}, a directed arc u → v, or a deletion
// retracting prior arrivals. Replay hands the kind back so a store of
// either orientation — or a deletion-capable store's mixed
// insert/delete log — can be recovered from its own records.
type Kind uint8

const (
	// KindEdge records undirected edges.
	KindEdge Kind = 0
	// KindArc records directed arcs.
	KindArc Kind = 1
	// KindDelete records edge deletions: each edge in the record
	// retracts one prior arrival of that edge. Only deletion-capable
	// stores replay these; a log for any other store never contains
	// them.
	KindDelete Kind = 2
)

// FsyncPolicy selects when appended records are forced to stable
// storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: an acknowledged batch is
	// durable. Slowest, strongest.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a background timer (Options.FsyncInterval):
	// a crash loses at most one interval of acknowledged edges.
	FsyncInterval
	// FsyncNever leaves syncing to the OS page cache: a process crash
	// loses nothing, a machine crash loses the unsynced tail.
	FsyncNever
)

// String returns the policy's flag spelling.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy parses the -wal-fsync flag values always | interval |
// never.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or never)", s)
	}
}

// Options configures a WAL. The zero value is usable: real filesystem,
// 64 MiB segments, fsync on every append.
type Options struct {
	// FS is the filesystem; nil means the real one.
	FS FS
	// SegmentBytes rotates to a new segment once the current one exceeds
	// this size. Zero means 64 MiB.
	SegmentBytes int64
	// Fsync selects the group-commit policy.
	Fsync FsyncPolicy
	// FsyncInterval is the timer period under FsyncInterval. Zero means
	// 100ms.
	FsyncInterval time.Duration
	// NextSeq seeds the sequence counter when the directory holds no
	// segments (a fresh log continuing from a snapshot). Zero means 1.
	NextSeq uint64
	// Heal, when non-nil, enables the background self-healing loop: on
	// an append/sync failure the log enters a degraded state (writes
	// fail fast with ErrDegraded) and a healer probes it back to health
	// with jittered exponential backoff. Nil keeps the legacy behavior:
	// failures are sticky and the next append rescans inline. See
	// heal.go.
	Heal *HealOptions
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.NextSeq == 0 {
		o.NextSeq = 1
	}
	return o
}

// Stats is a point-in-time snapshot of the WAL's counters, served on
// /metrics.
type Stats struct {
	Appends   int64  `json:"appends"`
	Records   int64  `json:"records"`
	Edges     int64  `json:"edges"`
	Bytes     int64  `json:"bytes"`
	Fsyncs    int64  `json:"fsyncs"`
	FsyncErrs int64  `json:"fsync_errors"`
	Rotations int64  `json:"rotations"`
	Segments  int    `json:"segments"`
	LastSeq   uint64 `json:"last_seq"`

	// Self-healing counters (zero unless Options.Heal is set).
	HealAttempts int64   `json:"heal_attempts"`
	Heals        int64   `json:"heals"`
	Quarantined  int64   `json:"quarantined_segments"`
	DegradedSecs float64 `json:"degraded_seconds"`
}

// WAL is a segmented write-ahead log of edge records. All methods are
// safe for concurrent use; appends are serialised internally, which is
// what assigns the global sequence order.
type WAL struct {
	fsys FS
	dir  string
	opts Options

	mu       sync.Mutex
	f        File
	bw       *bufio.Writer
	segments []segInfo // all live segments, ascending; last is current
	segSize  int64
	acked    int64 // current-segment offset after the last acknowledged append
	nextSeq  uint64
	dirty    bool
	failed   bool // a write failed: recover the segment before appending
	closed   bool
	syncErr  error // last fsync failure, nil after a later success
	scratch  []byte
	stats    Stats

	// Health state machine (heal.go); only used when opts.Heal != nil.
	degraded    bool
	degReason   string
	degSince    time.Time
	degAttempts int64
	nextProbe   time.Time
	healWake    chan struct{}
	stopHeal    chan struct{}
	healDone    chan struct{}

	stopSync chan struct{}
	syncDone chan struct{}
}

type segInfo struct {
	name     string
	firstSeq uint64
}

func segName(firstSeq uint64) string { return fmt.Sprintf("wal-%016x.seg", firstSeq) }

// parseSegName extracts the firstSeq from a segment file name; ok is
// false for files that are not segments.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	hexa := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
	if len(hexa) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hexa, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSegments returns the segment files under dir, ascending by first
// sequence number.
func listSegments(fsys FS, dir string) ([]segInfo, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segInfo
	for _, name := range names {
		if seq, ok := parseSegName(name); ok {
			segs = append(segs, segInfo{name: name, firstSeq: seq})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// Open opens (or creates) the log in dir, positioned to append after
// the last valid record. A torn or corrupt tail — the signature of a
// crash mid-append — is truncated away, not an error: the log's
// contract is that exactly the durable prefix survives. Anything
// before the tail that is unreadable *is* an error (that is data loss,
// not a torn write).
func Open(dir string, opts Options) (*WAL, error) {
	opts = opts.withDefaults()
	fsys := opts.FS
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: create dir %s: %w", dir, err)
	}
	segs, err := listSegments(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	w := &WAL{fsys: fsys, dir: dir, opts: opts, nextSeq: opts.NextSeq}

	// Drop trailing segments that died before their header was durable
	// (crash during rotation): they hold no records.
	for len(segs) > 0 {
		last := segs[len(segs)-1]
		path := filepath.Join(dir, last.name)
		size, err := fsys.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("wal: stat %s: %w", path, err)
		}
		if size >= segHeaderSize {
			break
		}
		if err := fsys.Remove(path); err != nil {
			return nil, fmt.Errorf("wal: remove torn segment %s: %w", path, err)
		}
		segs = segs[:len(segs)-1]
	}

	if len(segs) > 0 {
		// Scan the newest segment to find the end of the valid prefix,
		// truncate anything after it, and resume the sequence counter.
		last := segs[len(segs)-1]
		path := filepath.Join(dir, last.name)
		end, lastSeq, err := scanSegment(fsys, dir, last, nil)
		if err != nil {
			return nil, err
		}
		size, err := fsys.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("wal: stat %s: %w", path, err)
		}
		if end < size {
			if err := fsys.Truncate(path, end); err != nil {
				return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
			}
		}
		w.nextSeq = last.firstSeq
		if lastSeq != 0 {
			w.nextSeq = lastSeq + 1
		}
		f, err := fsys.OpenAppend(path)
		if err != nil {
			return nil, fmt.Errorf("wal: open %s for append: %w", path, err)
		}
		w.f = f
		w.segSize = end
		w.segments = segs
	} else {
		if err := w.newSegmentLocked(); err != nil {
			return nil, err
		}
	}
	// Everything durable at open is acknowledged history.
	w.acked = w.segSize
	w.bw = bufio.NewWriter(w.f)
	w.stats.Segments = len(w.segments)
	w.stats.LastSeq = w.nextSeq - 1

	if opts.Fsync == FsyncInterval {
		w.stopSync = make(chan struct{})
		w.syncDone = make(chan struct{})
		go w.syncLoop()
	}
	if opts.Heal != nil {
		w.healWake = make(chan struct{}, 1)
		w.stopHeal = make(chan struct{})
		w.healDone = make(chan struct{})
		go w.healLoop()
	}
	return w, nil
}

// newSegmentLocked creates the next segment file (first seq = nextSeq),
// writes its header, and makes its creation durable. Caller holds mu
// (or is Open, before the WAL is shared).
func (w *WAL) newSegmentLocked() error {
	seg := segInfo{name: segName(w.nextSeq), firstSeq: w.nextSeq}
	path := filepath.Join(w.dir, seg.name)
	f, err := w.fsys.Create(path)
	if err != nil {
		return fmt.Errorf("wal: create segment %s: %w", path, err)
	}
	var hdr [segHeaderSize]byte
	copy(hdr[0:4], segMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], segVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], seg.firstSeq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: fsync segment header %s: %w", path, err)
	}
	if err := w.fsys.SyncDir(w.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: fsync dir %s: %w", w.dir, err)
	}
	w.f = f
	w.segSize = segHeaderSize
	w.acked = segHeaderSize
	w.segments = append(w.segments, seg)
	w.stats.Segments = len(w.segments)
	return nil
}

// rotateLocked syncs and closes the current segment and starts a new
// one. A closed segment is always fsynced regardless of policy, so only
// the current segment can ever have a volatile tail.
func (w *WAL) rotateLocked() error {
	if err := w.bw.Flush(); err != nil {
		w.failed = true
		w.enterDegradedLocked(err)
		return fmt.Errorf("wal: flush before rotate: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.enterDegradedLocked(err)
		return fmt.Errorf("wal: fsync before rotate: %w", err)
	}
	w.dirty = false
	if err := w.f.Close(); err != nil {
		w.enterDegradedLocked(err)
		return fmt.Errorf("wal: close segment: %w", err)
	}
	if err := w.newSegmentLocked(); err != nil {
		w.failed = true
		w.enterDegradedLocked(err)
		return err
	}
	w.bw.Reset(w.f)
	w.acked = w.segSize
	w.stats.Rotations++
	return nil
}

// Append writes edges as one or more records, assigns them consecutive
// sequence numbers, and applies the fsync policy. It returns the
// sequence number of the last edge. Under FsyncAlways the edges are
// durable when Append returns; under the other policies they are
// OS-visible (the buffered writer is flushed) but not yet forced to
// stable storage.
func (w *WAL) Append(kind Kind, edges []stream.Edge) (lastSeq uint64, err error) {
	if len(edges) == 0 {
		return 0, errors.New("wal: empty append")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(nil, kind, edges)
}

// appendLocked is the one record writer behind Append and AppendFrame.
// It writes frame as one record or, when frame is nil, encodes edges
// into records of at most maxRecordEdges. Each record rotates the
// segment when it would overflow it, is stamped with the next sequence
// number and its CRC, and is written; then the records are flushed,
// the fsync policy applies, and the append is acknowledged. Caller
// holds mu.
func (w *WAL) appendLocked(frame []byte, kind Kind, edges []stream.Edge) (lastSeq uint64, err error) {
	if w.closed {
		return 0, errors.New("wal: append after close")
	}
	if w.degraded {
		return 0, w.degradedErrLocked()
	}
	if w.failed {
		if err := w.reopenSegmentLocked(); err != nil {
			return 0, err
		}
	}
	for {
		rec := frame
		if rec == nil {
			n := min(len(edges), maxRecordEdges)
			w.scratch = encodeRecord(w.scratch[:0], kind, edges[:n])
			rec, edges = w.scratch, edges[n:]
		}
		if w.segSize > segHeaderSize && w.segSize+int64(len(rec)) > w.opts.SegmentBytes {
			if err := w.rotateLocked(); err != nil {
				return 0, err
			}
		}
		count := binary.LittleEndian.Uint32(rec[recHeaderSize+1:])
		binary.LittleEndian.PutUint64(rec[8:16], w.nextSeq)
		binary.LittleEndian.PutUint32(rec[0:4], crc32.Checksum(rec[4:], castagnoli))
		if _, err := w.bw.Write(rec); err != nil {
			w.failed = true
			w.enterDegradedLocked(err)
			return 0, fmt.Errorf("wal: append record: %w", err)
		}
		w.segSize += int64(len(rec))
		w.nextSeq += uint64(count)
		w.dirty = true
		w.stats.Records++
		w.stats.Edges += int64(count)
		w.stats.Bytes += int64(len(rec))
		if frame != nil || len(edges) == 0 {
			break
		}
	}
	if err := w.bw.Flush(); err != nil {
		w.failed = true
		w.enterDegradedLocked(err)
		return 0, fmt.Errorf("wal: flush: %w", err)
	}
	if w.opts.Fsync == FsyncAlways {
		if err := w.syncLocked(); err != nil {
			return 0, err
		}
	}
	w.acked = w.segSize
	w.stats.Appends++
	w.stats.LastSeq = w.nextSeq - 1
	return w.nextSeq - 1, nil
}

// encodeRecord appends one record holding edges to dst, with seq 0 and
// the crc left for the caller to fill in: EncodeFrame checksums it as
// a wire frame, appendLocked stamps the log's sequence number first.
func encodeRecord(dst []byte, kind Kind, edges []stream.Edge) []byte {
	payloadLen := 5 + edgeSize*len(edges)
	base := len(dst)
	dst = slices.Grow(dst, recHeaderSize+payloadLen)[:base+recHeaderSize+payloadLen]
	buf := dst[base:]
	binary.LittleEndian.PutUint32(buf[4:8], uint32(payloadLen))
	binary.LittleEndian.PutUint64(buf[8:16], 0)
	buf[16] = byte(kind)
	binary.LittleEndian.PutUint32(buf[17:21], uint32(len(edges)))
	off := 21
	for _, e := range edges {
		binary.LittleEndian.PutUint64(buf[off:], e.U)
		binary.LittleEndian.PutUint64(buf[off+8:], e.V)
		binary.LittleEndian.PutUint64(buf[off+16:], uint64(e.T))
		off += edgeSize
	}
	return dst
}

// reopenSegmentLocked recovers the current segment after a failed
// write: the buffered writer is sticky-failed and the file may end in a
// partial record, so rescan it for its last whole record, cut the file
// back to that, and reopen for append. Sequence numbers consumed by
// records that never reached the file stay consumed — the log tolerates
// gaps, and none of those edges were acknowledged. Caller holds mu.
func (w *WAL) reopenSegmentLocked() error {
	w.f.Close() // best-effort: the stream already failed
	seg := w.segments[len(w.segments)-1]
	path := filepath.Join(w.dir, seg.name)
	end, _, err := scanSegment(w.fsys, w.dir, seg, nil)
	if err != nil {
		return fmt.Errorf("wal: rescan failed segment: %w", err)
	}
	size, err := w.fsys.Stat(path)
	if err != nil {
		return fmt.Errorf("wal: stat failed segment: %w", err)
	}
	if end < size {
		if err := w.fsys.Truncate(path, end); err != nil {
			return fmt.Errorf("wal: truncate failed segment: %w", err)
		}
	}
	f, err := w.fsys.OpenAppend(path)
	if err != nil {
		return fmt.Errorf("wal: reopen segment %s: %w", path, err)
	}
	w.f = f
	w.bw.Reset(w.f)
	w.segSize = end
	w.dirty = true // the surviving tail may postdate the last fsync
	w.failed = false
	return nil
}

// syncLocked flushes and fsyncs the current segment, recording the
// outcome for Healthy. Caller holds mu.
func (w *WAL) syncLocked() error {
	if err := w.bw.Flush(); err != nil {
		w.syncErr = err
		w.failed = true
		w.stats.FsyncErrs++
		w.enterDegradedLocked(err)
		return fmt.Errorf("wal: flush: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.syncErr = err
		w.stats.FsyncErrs++
		w.enterDegradedLocked(err)
		return fmt.Errorf("wal: fsync: %w", err)
	}
	w.syncErr = nil
	w.dirty = false
	w.stats.Fsyncs++
	return nil
}

// Sync forces all appended records to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	if w.degraded {
		return w.degradedErrLocked()
	}
	return w.syncLocked()
}

// syncLoop is the FsyncInterval group-commit timer.
func (w *WAL) syncLoop() {
	defer close(w.syncDone)
	t := time.NewTicker(w.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stopSync:
			return
		case <-t.C:
			w.mu.Lock()
			if w.dirty && !w.closed && !w.degraded {
				w.syncLocked() // outcome recorded in syncErr/stats
			}
			w.mu.Unlock()
		}
	}
}

// LastSeq returns the sequence number of the last appended edge (0 if
// nothing was ever appended).
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq - 1
}

// Stats returns a snapshot of the WAL's counters.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.stats
	s.LastSeq = w.nextSeq - 1
	return s
}

// Healthy reports whether the last fsync succeeded; when it did not,
// reason describes the failure. A store served from an unhealthy WAL
// is live but no longer durable — /healthz degrades on it.
func (w *WAL) Healthy() (ok bool, reason string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.degraded {
		return false, fmt.Sprintf("wal degraded, healing: %s (probe %d)", w.degReason, w.degAttempts)
	}
	if w.syncErr != nil {
		return false, fmt.Sprintf("wal fsync failing: %v", w.syncErr)
	}
	return true, ""
}

// Prune removes segments whose every record is at or below seq —
// typically the sequence number of a just-written snapshot. The current
// segment is never removed. It returns the number of segments removed.
func (w *WAL) Prune(seq uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	removed := 0
	// A segment is fully covered when its successor starts at or below
	// seq+1 (the successor's firstSeq is one past this segment's last).
	for len(w.segments) > 1 && w.segments[1].firstSeq <= seq+1 {
		path := filepath.Join(w.dir, w.segments[0].name)
		if err := w.fsys.Remove(path); err != nil {
			return removed, fmt.Errorf("wal: prune %s: %w", path, err)
		}
		w.segments = w.segments[1:]
		removed++
	}
	w.stats.Segments = len(w.segments)
	if removed > 0 {
		if err := w.fsys.SyncDir(w.dir); err != nil {
			return removed, fmt.Errorf("wal: fsync dir after prune: %w", err)
		}
	}
	return removed, nil
}

// Close syncs and closes the log. Further appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	stop := w.stopSync
	stopHeal := w.stopHeal
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		<-w.syncDone
	}
	if stopHeal != nil {
		close(stopHeal)
		<-w.healDone
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.bw.Flush()
	if serr := w.f.Sync(); err == nil {
		err = serr
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// Record is one replayed WAL record: a batch of edges whose first edge
// has sequence number Seq.
type Record struct {
	Seq   uint64
	Kind  Kind
	Edges []stream.Edge
}

// ReplayResult summarises a replay: how much was applied and whether a
// torn tail was skipped.
type ReplayResult struct {
	Records        int64  `json:"records"`
	Edges          int64  `json:"edges"`
	LastSeq        uint64 `json:"last_seq"`
	TruncatedBytes int64  `json:"truncated_bytes"`
}

// Replay reads the log in dir and calls fn for every record whose edges
// extend past seq `after` (records at or below it are skipped; a record
// straddling the boundary is delivered with its already-applied prefix
// trimmed). Replay stops cleanly at the first torn or corrupt record —
// that is the durable end of the log — and reports how many trailing
// bytes it ignored. fn sees edges in exactly the order they were
// appended.
func Replay(fsys FS, dir string, after uint64, fn func(Record) error) (ReplayResult, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	var res ReplayResult
	res.LastSeq = after
	segs, err := listSegments(fsys, dir)
	if err != nil {
		return res, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	for i, seg := range segs {
		// Whole segment already covered by the snapshot: skip unopened.
		if i+1 < len(segs) && segs[i+1].firstSeq <= after+1 {
			continue
		}
		deliver := func(rec Record) error {
			recEnd := rec.Seq + uint64(len(rec.Edges)) - 1
			if recEnd <= after {
				return nil
			}
			if rec.Seq <= after {
				skip := after + 1 - rec.Seq
				rec.Edges = rec.Edges[skip:]
				rec.Seq = after + 1
			}
			if err := fn(rec); err != nil {
				return err
			}
			res.Records++
			res.Edges += int64(len(rec.Edges))
			res.LastSeq = recEnd
			return nil
		}
		end, _, err := scanSegment(fsys, dir, seg, deliver)
		if err != nil {
			return res, err
		}
		size, err := fsys.Stat(filepath.Join(dir, seg.name))
		if err != nil {
			return res, fmt.Errorf("wal: stat %s: %w", seg.name, err)
		}
		if end < size {
			// Torn or corrupt tail: the log ends here. Later segments (if
			// any) were written after the corruption and cannot be trusted
			// to be gap-free, so they are ignored too.
			res.TruncatedBytes = size - end
			for _, later := range segs[i+1:] {
				if lsize, err := fsys.Stat(filepath.Join(dir, later.name)); err == nil {
					res.TruncatedBytes += lsize
				}
			}
			return res, nil
		}
	}
	return res, nil
}

// scanSegment reads seg record by record, calling fn (when non-nil) for
// each valid record. It returns the byte offset one past the last valid
// record — the segment's durable end — and the sequence number of the
// last edge of the last valid record (0 when the segment has none).
// Torn or corrupt data after the valid prefix is *not* an error; fn
// errors are.
func scanSegment(fsys FS, dir string, seg segInfo, fn func(Record) error) (validEnd int64, lastSeq uint64, err error) {
	path := filepath.Join(dir, seg.name)
	f, err := fsys.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: open %s: %w", path, err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)

	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("wal: %s: short segment header: %w", seg.name, err)
	}
	if string(hdr[0:4]) != segMagic {
		return 0, 0, fmt.Errorf("wal: %s: bad segment magic %q", seg.name, hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != segVersion {
		return 0, 0, fmt.Errorf("wal: %s: unsupported segment version %d", seg.name, v)
	}
	if first := binary.LittleEndian.Uint64(hdr[8:16]); first != seg.firstSeq {
		return 0, 0, fmt.Errorf("wal: %s: header firstSeq %d does not match name", seg.name, first)
	}

	validEnd = segHeaderSize
	var rh [recHeaderSize]byte
	payload := make([]byte, 0, 1<<16)
	for {
		if _, err := io.ReadFull(br, rh[:]); err != nil {
			return validEnd, lastSeq, nil // clean EOF or torn header: durable end
		}
		wantCRC := binary.LittleEndian.Uint32(rh[0:4])
		plen := binary.LittleEndian.Uint32(rh[4:8])
		seq := binary.LittleEndian.Uint64(rh[8:16])
		if plen < 5 || plen > maxRecordPayload {
			return validEnd, lastSeq, nil // implausible length: corrupt tail
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return validEnd, lastSeq, nil // torn payload
		}
		crc := crc32.Checksum(rh[4:], castagnoli)
		crc = crc32.Update(crc, castagnoli, payload)
		if crc != wantCRC {
			return validEnd, lastSeq, nil // corrupt record
		}
		count := binary.LittleEndian.Uint32(payload[1:5])
		if int(plen) != 5+edgeSize*int(count) || count == 0 {
			return validEnd, lastSeq, nil // length/count mismatch: corrupt
		}
		if fn != nil {
			rec := Record{Seq: seq, Kind: Kind(payload[0]), Edges: make([]stream.Edge, count)}
			off := 5
			for i := range rec.Edges {
				rec.Edges[i] = stream.Edge{
					U: binary.LittleEndian.Uint64(payload[off:]),
					V: binary.LittleEndian.Uint64(payload[off+8:]),
					T: int64(binary.LittleEndian.Uint64(payload[off+16:])),
				}
				off += edgeSize
			}
			if err := fn(rec); err != nil {
				return validEnd, lastSeq, err
			}
		}
		validEnd += int64(recHeaderSize) + int64(plen)
		lastSeq = seq + uint64(count) - 1
	}
}
