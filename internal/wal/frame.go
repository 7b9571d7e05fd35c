package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"linkpred/internal/stream"
)

// Binary edge frames: the zero-copy ingest wire format.
//
// A frame is byte-for-byte one WAL record (DESIGN.md §2.7):
//
//	frame   = crc u32 | len u32 | seq u64 | payload      (16 + len bytes)
//	payload = kind u8 | count u32 | count × edge
//	edge    = u u64 | v u64 | t i64                      (24 bytes)
//
// Clients encode seq as 0 — sequence numbers belong to the server's
// log, not the wire — and crc (CRC32C over everything after itself)
// protects the frame in transit exactly as it protects a record at
// rest. Because the layouts coincide, a durable server ingests a frame
// by patching the 8 seq bytes, recomputing the CRC, and appending the
// request bytes to the log as-is: no per-edge decode → re-encode on the
// hot write path. See (*WAL).AppendFrame and (*Durable).IngestRecord.
//
// FrameReader validates with the same checks replay applies to records
// (scanSegment): bounded length field before any allocation, CRC over
// header remainder + payload, and length/count consistency. A frame
// that fails any of them is an error the HTTP layer maps to 400 — the
// parser never panics on adversarial input (FuzzFrameReader).

// MaxFrameEdges is the edge capacity of one frame; it equals the WAL's
// per-record bound, so an accepted frame is always appendable without
// splitting. Encoders must split larger batches across frames.
const MaxFrameEdges = maxRecordEdges

// FrameContentType is the Content-Type that selects binary frame ingest
// on POST /ingest.
const FrameContentType = "application/x-lp-edges"

// EncodeFrame appends one frame holding edges to dst and returns the
// extended slice. The frame's seq field is 0. It returns an error if
// edges is empty or exceeds MaxFrameEdges.
func EncodeFrame(dst []byte, kind Kind, edges []stream.Edge) ([]byte, error) {
	if len(edges) == 0 {
		return dst, errors.New("wal: empty frame")
	}
	if len(edges) > MaxFrameEdges {
		return dst, fmt.Errorf("wal: frame of %d edges exceeds the %d-edge bound", len(edges), MaxFrameEdges)
	}
	base := len(dst)
	dst = encodeRecord(dst, kind, edges)
	frame := dst[base:]
	binary.LittleEndian.PutUint32(frame[0:4], crc32.Checksum(frame[4:], castagnoli))
	return dst, nil
}

// FrameReader reads and validates frames from a stream (typically an
// HTTP request body). The frame bytes and decoded edges returned by
// Next share the reader's internal buffers and are valid until the
// following Next call.
type FrameReader struct {
	r     io.Reader
	buf   []byte
	edges []stream.Edge
}

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// Reset makes fr read frames from r, keeping the buffers it has grown,
// so one reader can serve request after request.
func (fr *FrameReader) Reset(r io.Reader) { fr.r = r }

// Next reads one frame. It returns the frame's kind, its raw validated
// bytes (for (*Durable).IngestRecord), and the decoded edges. At a clean
// end of stream — EOF exactly on a frame boundary — it returns io.EOF;
// a stream that ends inside a frame is a torn-frame error, and a frame
// failing any structural check (length bounds, CRC, count consistency,
// unknown kind) is its own error. None of these errors panic, whatever
// the input.
func (fr *FrameReader) Next() (kind Kind, frame []byte, edges []stream.Edge, err error) {
	if cap(fr.buf) < recHeaderSize {
		fr.buf = make([]byte, recHeaderSize, 4096)
	}
	hdr := fr.buf[:recHeaderSize]
	if _, err := io.ReadFull(fr.r, hdr); err != nil {
		if err == io.EOF {
			return 0, nil, nil, io.EOF
		}
		return 0, nil, nil, fmt.Errorf("wal: torn frame header: %w", err)
	}
	plen := binary.LittleEndian.Uint32(hdr[4:8])
	// Bound the length field before it sizes anything, mirroring replay.
	if plen < 5 || plen > maxRecordPayload {
		return 0, nil, nil, fmt.Errorf("wal: frame payload length %d outside [5, %d]", plen, maxRecordPayload)
	}
	total := recHeaderSize + int(plen)
	if cap(fr.buf) < total {
		grown := make([]byte, total)
		copy(grown, hdr)
		fr.buf = grown
	}
	frame = fr.buf[:total]
	if _, err := io.ReadFull(fr.r, frame[recHeaderSize:]); err != nil {
		return 0, nil, nil, fmt.Errorf("wal: torn frame payload: %w", err)
	}
	if got, want := crc32.Checksum(frame[4:], castagnoli), binary.LittleEndian.Uint32(frame[0:4]); got != want {
		return 0, nil, nil, fmt.Errorf("wal: frame crc mismatch (got %#x, frame says %#x)", got, want)
	}
	payload := frame[recHeaderSize:]
	if payload[0] > byte(KindDelete) {
		return 0, nil, nil, fmt.Errorf("wal: unknown frame kind %d", payload[0])
	}
	count := binary.LittleEndian.Uint32(payload[1:5])
	if count == 0 || int(plen) != 5+edgeSize*int(count) {
		return 0, nil, nil, fmt.Errorf("wal: frame length %d inconsistent with edge count %d", plen, count)
	}
	if cap(fr.edges) < int(count) {
		fr.edges = make([]stream.Edge, count)
	}
	edges = fr.edges[:count]
	off := 5
	for i := range edges {
		edges[i].U = binary.LittleEndian.Uint64(payload[off:])
		edges[i].V = binary.LittleEndian.Uint64(payload[off+8:])
		edges[i].T = int64(binary.LittleEndian.Uint64(payload[off+16:]))
		off += edgeSize
	}
	return Kind(payload[0]), frame, edges, nil
}

// AppendFrame appends one validated frame to the log as a record: it
// assigns the next sequence number in place, recomputes the CRC, and
// writes the frame bytes without re-encoding the edges. The frame must
// have passed FrameReader validation (AppendFrame re-checks the cheap
// structural invariants and rejects violations, but trusts the edge
// bytes — the CRC it writes covers whatever they are). The fsync policy
// applies as in Append. The caller's buffer is mutated (seq and crc
// fields) and may be reused after return.
func (w *WAL) AppendFrame(frame []byte) (lastSeq uint64, err error) {
	if len(frame) < recHeaderSize+5 {
		return 0, fmt.Errorf("wal: frame of %d bytes is shorter than any record", len(frame))
	}
	plen := binary.LittleEndian.Uint32(frame[4:8])
	if int(plen) != len(frame)-recHeaderSize || plen > maxRecordPayload {
		return 0, fmt.Errorf("wal: frame length field %d inconsistent with %d frame bytes", plen, len(frame))
	}
	count := binary.LittleEndian.Uint32(frame[recHeaderSize+1:])
	if count == 0 || int(plen) != 5+edgeSize*int(count) {
		return 0, fmt.Errorf("wal: frame length %d inconsistent with edge count %d", plen, count)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(frame, 0, nil)
}
