package core

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"

	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	edges := randomEdges(200, 5000, 307)
	cfg := Config{K: 64, Seed: 311, EnableBiased: true, Degrees: DegreeDistinctKMV}
	_, orig := buildBoth(t, cfg, edges)

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSketchStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Config() != cfg {
		t.Errorf("config round trip: %+v != %+v", loaded.Config(), cfg)
	}
	if loaded.NumEdges() != orig.NumEdges() || loaded.NumVertices() != orig.NumVertices() {
		t.Errorf("counts differ: %d/%d vs %d/%d",
			loaded.NumEdges(), loaded.NumVertices(), orig.NumEdges(), orig.NumVertices())
	}
	x := rng.NewXoshiro256(313)
	for i := 0; i < 300; i++ {
		u, v := uint64(x.Intn(200)), uint64(x.Intn(200))
		if orig.EstimateJaccard(u, v) != loaded.EstimateJaccard(u, v) ||
			orig.EstimateCommonNeighbors(u, v) != loaded.EstimateCommonNeighbors(u, v) ||
			orig.EstimateAdamicAdar(u, v) != loaded.EstimateAdamicAdar(u, v) ||
			orig.EstimateAdamicAdarBiased(u, v) != loaded.EstimateAdamicAdarBiased(u, v) ||
			orig.Degree(u) != loaded.Degree(u) {
			t.Fatalf("loaded store diverges at (%d,%d)", u, v)
		}
	}
}

func TestSaveLoadResumeStream(t *testing.T) {
	// Save mid-stream, resume on the loaded copy: results must equal a
	// store that consumed the whole stream without interruption.
	edges := randomEdges(100, 4000, 317)
	cfg := Config{K: 64, Seed: 331}
	full, err := NewSketchStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	half, _ := NewSketchStore(cfg)
	for i, e := range edges {
		full.ProcessEdge(e)
		if i < len(edges)/2 {
			half.ProcessEdge(e)
		}
	}
	var buf bytes.Buffer
	if err := half.Save(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := LoadSketchStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges[len(edges)/2:] {
		resumed.ProcessEdge(e)
	}
	x := rng.NewXoshiro256(337)
	for i := 0; i < 200; i++ {
		u, v := uint64(x.Intn(100)), uint64(x.Intn(100))
		if full.EstimateJaccard(u, v) != resumed.EstimateJaccard(u, v) ||
			full.EstimateAdamicAdar(u, v) != resumed.EstimateAdamicAdar(u, v) {
			t.Fatalf("resumed store diverges from uninterrupted store at (%d,%d)", u, v)
		}
	}
}

func TestSaveDeterministicBytes(t *testing.T) {
	edges := randomEdges(100, 2000, 347)
	_, s := buildBoth(t, Config{K: 32, Seed: 349}, edges)
	var a, b bytes.Buffer
	if err := s.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two saves of the same store differ byte-wise")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := LoadSketchStore(strings.NewReader("")); err == nil {
		t.Error("empty input should error")
	}
	if _, err := LoadSketchStore(strings.NewReader("NOPE")); err == nil {
		t.Error("short bad magic should error")
	}
	if _, err := LoadSketchStore(strings.NewReader("NOPExxxxxxxxxxxxxxxxxxxxxxx")); err == nil {
		t.Error("bad magic should error")
	}
	// Truncated valid prefix.
	_, s := buildBoth(t, Config{K: 16, Seed: 1}, randomEdges(20, 100, 353))
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := LoadSketchStore(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated input should error")
	}
	// Corrupted version field.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[4] = 99
	if _, err := LoadSketchStore(bytes.NewReader(bad)); err == nil {
		t.Error("unsupported version should error")
	}
}

func TestSaveEmptyStore(t *testing.T) {
	s, _ := NewSketchStore(Config{K: 8, Seed: 1})
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSketchStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumVertices() != 0 || loaded.NumEdges() != 0 {
		t.Error("empty store round trip not empty")
	}
	// Loaded empty store must still be usable.
	loaded.ProcessEdge(stream.Edge{U: 1, V: 2})
	if !loaded.Knows(1) {
		t.Error("loaded store cannot ingest")
	}
}

// TestU64sMatchesWordReads pins that bulk span decoding fails exactly
// where a word-at-a-time decoder would — same image offset, same error —
// for every truncation of a span longer than one read chunk, and
// decodes the same words when nothing is missing.
func TestU64sMatchesWordReads(t *testing.T) {
	img := make([]byte, 8*(u64sChunk+3))
	for i := range img {
		img[i] = byte(i * 7)
	}
	words := len(img) / 8
	for n := 0; n <= len(img); n++ {
		bulk := newBinReader(bytes.NewReader(img[:n]))
		got := make([]uint64, words)
		errBulk := bulk.u64s(got)
		word := newBinReader(bytes.NewReader(img[:n]))
		var errWord error
		for i := 0; i < words && errWord == nil; i++ {
			var v uint64
			if v, errWord = word.u64(); errWord == nil && errBulk == nil && v != got[i] {
				t.Fatalf("n=%d: word %d decoded as %#x, want %#x", n, i, got[i], v)
			}
		}
		if (errBulk == nil) != (errWord == nil) || bulk.off != word.off {
			t.Fatalf("n=%d: bulk (%v, off %d) vs words (%v, off %d)", n, errBulk, bulk.off, errWord, word.off)
		}
		if errBulk != nil && bulk.fail("span", errBulk).Error() != word.fail("span", errWord).Error() {
			t.Fatalf("n=%d: %v != %v", n, bulk.fail("span", errBulk), word.fail("span", errWord))
		}
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		k := f.n
		f.n = 0
		return k, io.ErrShortWrite
	}
	f.n -= len(p)
	return len(p), nil
}

// TestSaveReportsWriteErrors: every Save returns an error when its
// writer fails, wherever in the image the failure lands, and writes its
// whole image through a caller's bufio.Writer however small its buffer.
func TestSaveReportsWriteErrors(t *testing.T) {
	cfg := Config{K: 16, Seed: 41, Degrees: DegreeDistinctKMV}
	edges := skewedEdges(40, 600, 43)
	stores := []Store{
		must(NewSketchStore(cfg)), must(NewSharded(cfg, 4)), must(NewWindowed(cfg, 300, 3)),
		must(NewDirectedStore(cfg)), must(NewShardedDirected(cfg, 4)), must(NewDynamicStore(cfg, 2)),
	}
	for _, s := range stores {
		for _, e := range edges {
			s.Ingest(e)
		}
		img := saveBytes(t, s.Save)
		for _, n := range []int{0, 100, len(img) / 2, len(img) - 1} {
			if err := s.Save(&failAfter{n}); err == nil {
				t.Errorf("%T.Save succeeded on a writer failing after %d of %d bytes", s, n, len(img))
			}
		}
		var buf bytes.Buffer
		small := bufio.NewWriterSize(&buf, 4)
		if err := s.Save(small); err != nil {
			t.Fatalf("%T.Save into a 4-byte bufio.Writer: %v", s, err)
		}
		if err := small.Flush(); err != nil || !bytes.Equal(buf.Bytes(), img) {
			t.Errorf("%T.Save into a 4-byte bufio.Writer wrote %d bytes, not its %d-byte image (flush: %v)", s, buf.Len(), len(img), err)
		}
	}
}
