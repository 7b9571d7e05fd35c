package wal

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"testing"

	"linkpred/internal/stream"
)

// TestFrameRoundTrip: EncodeFrame output parses back to the same edges
// and kind, for both kinds and several batch shapes, including frames
// concatenated in one stream.
func TestFrameRoundTrip(t *testing.T) {
	for _, kind := range []Kind{KindEdge, KindArc, KindDelete} {
		var wire []byte
		var want [][]stream.Edge
		for _, n := range []int{1, 2, 100} {
			edges := testEdges(uint64(n), n)
			var err error
			wire, err = EncodeFrame(wire, kind, edges)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, edges)
		}
		fr := NewFrameReader(bytes.NewReader(wire))
		for i, wantEdges := range want {
			k, frame, edges, err := fr.Next()
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if k != kind {
				t.Fatalf("frame %d: kind %d, want %d", i, k, kind)
			}
			if len(frame) != recHeaderSize+5+edgeSize*len(wantEdges) {
				t.Fatalf("frame %d: %d raw bytes", i, len(frame))
			}
			if len(edges) != len(wantEdges) {
				t.Fatalf("frame %d: %d edges, want %d", i, len(edges), len(wantEdges))
			}
			for j := range edges {
				if edges[j] != wantEdges[j] {
					t.Fatalf("frame %d edge %d = %+v, want %+v", i, j, edges[j], wantEdges[j])
				}
			}
		}
		if _, _, _, err := fr.Next(); err != io.EOF {
			t.Fatalf("after last frame: err = %v, want io.EOF", err)
		}
	}
}

// TestFrameReaderReset: a reset reader reads its new stream from the
// start, whatever it left unread in the old one, and reuses the buffers
// it grew: reading a frame no larger than one it read before allocates
// nothing.
func TestFrameReaderReset(t *testing.T) {
	big, err := EncodeFrame(nil, KindEdge, testEdges(1, 300))
	if err != nil {
		t.Fatal(err)
	}
	want := testEdges(2, 200)
	small, err := EncodeFrame(nil, KindDelete, want)
	if err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(bytes.NewReader(append(append([]byte(nil), big...), big...)))
	if _, _, _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	var src bytes.Reader
	allocs := testing.AllocsPerRun(10, func() {
		src.Reset(small)
		fr.Reset(&src)
		kind, frame, edges, err := fr.Next()
		if err != nil || kind != KindDelete || !bytes.Equal(frame, small) || len(edges) != len(want) {
			t.Fatalf("after Reset: kind %d, %d frame bytes, %d edges, err %v", kind, len(frame), len(edges), err)
		}
		for i := range edges {
			if edges[i] != want[i] {
				t.Fatalf("after Reset: edge %d = %+v, want %+v", i, edges[i], want[i])
			}
		}
		if _, _, _, err := fr.Next(); err != io.EOF {
			t.Fatalf("after the reset stream's frame: err = %v, want io.EOF", err)
		}
	})
	if allocs != 0 {
		t.Errorf("Reset and Next allocated %v times per run, want 0", allocs)
	}
}

// TestFrameEncodeBounds: empty and oversized batches are rejected at
// encode time.
func TestFrameEncodeBounds(t *testing.T) {
	if _, err := EncodeFrame(nil, KindEdge, nil); err == nil {
		t.Fatal("empty frame encoded")
	}
	big := make([]stream.Edge, MaxFrameEdges+1)
	if _, err := EncodeFrame(nil, KindEdge, big); err == nil {
		t.Fatal("oversized frame encoded")
	}
}

// TestAppendFrameMatchesAppend: a log built from AppendFrame replays to
// the same edges, sequence numbers, and kinds as one built from Append —
// the zero-copy path and the encode path are indistinguishable at rest.
func TestAppendFrameMatchesAppend(t *testing.T) {
	edges := testEdges(7, 500)

	dirA := t.TempDir()
	wa, err := Open(dirA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(edges); i += 50 {
		if _, err := wa.Append(KindEdge, edges[i:i+50]); err != nil {
			t.Fatal(err)
		}
	}
	if err := wa.Close(); err != nil {
		t.Fatal(err)
	}

	dirB := t.TempDir()
	wb, err := Open(dirB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var frame []byte
	for i := 0; i < len(edges); i += 50 {
		frame, err = EncodeFrame(frame[:0], KindEdge, edges[i:i+50])
		if err != nil {
			t.Fatal(err)
		}
		last, err := wb.AppendFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(i + 50); last != want {
			t.Fatalf("AppendFrame lastSeq = %d, want %d", last, want)
		}
	}
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}

	gotA, resA := collectReplay(t, nil, dirA, 0)
	gotB, resB := collectReplay(t, nil, dirB, 0)
	if len(gotA) != len(gotB) || resA.LastSeq != resB.LastSeq {
		t.Fatalf("replays diverge: %d/%d edges, lastSeq %d/%d", len(gotA), len(gotB), resA.LastSeq, resB.LastSeq)
	}
	for i := range gotA {
		if gotA[i] != gotB[i] {
			t.Fatalf("edge %d: %+v != %+v", i, gotA[i], gotB[i])
		}
	}

	// The segment files themselves must be byte-identical: AppendFrame
	// writes the same records Append would.
	bytesA := readSegments(t, dirA)
	bytesB := readSegments(t, dirB)
	if !bytes.Equal(bytesA, bytesB) {
		t.Fatalf("segment bytes diverge (%d vs %d bytes)", len(bytesA), len(bytesB))
	}
}

func readSegments(t *testing.T, dir string) []byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all
}

// TestAppendFrameRotates: frames respect the segment size bound like
// records do.
func TestAppendFrameRotates(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var frame []byte
	edges := testEdges(3, 64)
	for i := 0; i < 40; i++ {
		frame, err = EncodeFrame(frame[:0], KindEdge, edges)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.AppendFrame(frame); err != nil {
			t.Fatal(err)
		}
	}
	if w.Stats().Rotations == 0 {
		t.Fatal("no rotations despite tiny segments")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := collectReplay(t, nil, dir, 0)
	if len(got) != 40*64 {
		t.Fatalf("replayed %d edges, want %d", len(got), 40*64)
	}
}

// TestAppendFrameRejectsMalformed: structurally broken frames never
// reach the log.
func TestAppendFrameRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	good, err := EncodeFrame(nil, KindEdge, testEdges(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"short":     good[:recHeaderSize+2],
		"truncated": good[:len(good)-8],
	}
	zeroCount := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(zeroCount[recHeaderSize+1:], 0)
	cases["zero count"] = zeroCount
	badCount := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(badCount[recHeaderSize+1:], 7)
	cases["count mismatch"] = badCount
	for name, frame := range cases {
		if _, err := w.AppendFrame(frame); err == nil {
			t.Errorf("%s frame accepted", name)
		}
	}
	if got := w.Stats().Records; got != 0 {
		t.Fatalf("%d records written by rejected frames", got)
	}
}

// FuzzFrameReader: whatever the body bytes, the parser returns an error
// or a valid frame — it never panics, never accepts a kind beyond
// KindDelete, and an accepted frame is exactly what EncodeFrame writes
// for its kind and edges, apart from the crc and seq fields (a client's
// seq is not checked, and the crc covers it). Seeds cover the
// adversarial shapes the HTTP layer must 400 on: torn frames (header
// and payload), bad CRC, oversized and inconsistent length fields,
// unknown kind — and the ones specific to deletion: a delete frame torn
// after its kind byte or in its payload, corrupt kind bytes next to
// KindDelete with a valid CRC, and insert/delete streams torn at the
// second frame's kind byte.
func FuzzFrameReader(f *testing.F) {
	good, _ := EncodeFrame(nil, KindEdge, testEdges(9, 4))
	f.Add(good)
	f.Add(good[:7])           // torn header
	f.Add(good[:len(good)-5]) // torn payload
	badCRC := append([]byte(nil), good...)
	badCRC[0] ^= 0xff
	f.Add(badCRC)
	huge := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(huge[4:8], 1<<31) // oversized len
	f.Add(huge)
	tiny := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(tiny[4:8], 3) // below the 5-byte minimum
	f.Add(tiny)
	badKind := append([]byte(nil), good...)
	badKind[recHeaderSize] = 9
	f.Add(badKind)
	mismatch := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(mismatch[recHeaderSize+1:], 1000) // count ≠ len
	f.Add(mismatch)
	two := append(append([]byte(nil), good...), good...)
	f.Add(two)
	del, _ := EncodeFrame(nil, KindDelete, testEdges(4, 6))
	f.Add(del)
	f.Add(del[:recHeaderSize+1]) // torn right after the kind byte
	f.Add(del[:len(del)-3])      // torn payload
	kind3 := append([]byte(nil), del...)
	kind3[recHeaderSize] = 3 // first illegal kind
	f.Add(reframe(kind3))
	kindFF := append([]byte(nil), del...)
	kindFF[recHeaderSize] = 0xff
	f.Add(reframe(kindFF))
	ins, _ := EncodeFrame(nil, KindEdge, testEdges(5, 2))
	mixed := append(append([]byte(nil), ins...), del...)
	f.Add(mixed)
	f.Add(mixed[:len(ins)+recHeaderSize]) // second frame torn at its kind byte

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		for {
			kind, frame, edges, err := fr.Next()
			if err != nil {
				return // io.EOF or a validation error; both fine
			}
			if kind > KindDelete {
				t.Fatalf("parser accepted kind %d", kind)
			}
			if len(edges) == 0 {
				t.Fatal("valid frame with zero edges")
			}
			if len(frame) != recHeaderSize+5+edgeSize*len(edges) {
				t.Fatalf("frame of %d bytes claims %d edges", len(frame), len(edges))
			}
			want, err := EncodeFrame(nil, kind, edges)
			if err != nil {
				t.Fatalf("accepted frame does not re-encode: %v", err)
			}
			if !bytes.Equal(frame[4:8], want[4:8]) || !bytes.Equal(frame[16:], want[16:]) {
				t.Fatalf("accepted frame %x differs from its re-encoding %x outside crc and seq", frame, want)
			}
		}
	})
}
