package core

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"
)

// withGOMAXPROCS runs fn under the given GOMAXPROCS and restores the
// old value. The parallel persistence paths gate on GOMAXPROCS > 1, so
// on a single-proc CI host this is the only way to exercise them.
func withGOMAXPROCS(n int, fn func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// TestParallelSaveByteIdentical: Save's bytes do not depend on
// GOMAXPROCS — both sharded stores write the same image at 1 and 4
// procs. The committed snapshot format (and the crash-replay cmp smoke
// in CI) depends on this.
func TestParallelSaveByteIdentical(t *testing.T) {
	edges := randomEdges(300, 6000, 40111)
	s, err := NewSharded(Config{K: 32, Seed: 40123, Degrees: DegreeDistinctKMV}, 8)
	if err != nil {
		t.Fatal(err)
	}
	s.ProcessEdges(edges)
	var seq, par []byte
	withGOMAXPROCS(1, func() { seq = pipelineSaveBytes(t, s.Save) })
	withGOMAXPROCS(4, func() { par = pipelineSaveBytes(t, s.Save) })
	if !bytes.Equal(seq, par) {
		t.Fatal("parallel Sharded.Save differs from sequential bytes")
	}

	d, err := NewShardedDirected(Config{K: 32, Seed: 40127}, 8)
	if err != nil {
		t.Fatal(err)
	}
	d.ProcessArcs(edges)
	var dseq, dpar []byte
	withGOMAXPROCS(1, func() { dseq = pipelineSaveBytes(t, d.Save) })
	withGOMAXPROCS(4, func() { dpar = pipelineSaveBytes(t, d.Save) })
	if !bytes.Equal(dseq, dpar) {
		t.Fatal("parallel ShardedDirected.Save differs from sequential bytes")
	}
}

// TestParallelLoadMatchesSequential: the parallel loader (boundary scan
// + concurrent shard decode) must restore exactly the store the
// sequential loader does, proven by re-saving both and comparing
// bytes.
func TestParallelLoadMatchesSequential(t *testing.T) {
	edges := randomEdges(250, 5000, 40129)
	s, err := NewSharded(Config{K: 24, Seed: 40151}, 8)
	if err != nil {
		t.Fatal(err)
	}
	s.ProcessEdges(edges)
	img := pipelineSaveBytes(t, s.Save)

	var fromSeq, fromPar *Sharded
	withGOMAXPROCS(1, func() {
		var lerr error
		if fromSeq, lerr = LoadSharded(bytes.NewReader(img)); lerr != nil {
			t.Error(lerr)
		}
	})
	withGOMAXPROCS(4, func() {
		var lerr error
		if fromPar, lerr = LoadSharded(bytes.NewReader(img)); lerr != nil {
			t.Error(lerr)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	if !bytes.Equal(pipelineSaveBytes(t, fromSeq.Save), pipelineSaveBytes(t, fromPar.Save)) {
		t.Fatal("parallel LoadSharded restored a different store than sequential")
	}
	if fromSeq.NumVertices() != fromPar.NumVertices() || fromSeq.NumEdges() != fromPar.NumEdges() ||
		fromSeq.MemoryBytes() != fromPar.MemoryBytes() {
		t.Fatalf("gauges diverge: (%d,%d,%d) vs (%d,%d,%d)",
			fromSeq.NumVertices(), fromSeq.NumEdges(), fromSeq.MemoryBytes(),
			fromPar.NumVertices(), fromPar.NumEdges(), fromPar.MemoryBytes())
	}

	d, err := NewShardedDirected(Config{K: 24, Seed: 40153}, 6)
	if err != nil {
		t.Fatal(err)
	}
	d.ProcessArcs(edges)
	dimg := pipelineSaveBytes(t, d.Save)
	var dSeq, dPar *ShardedDirected
	withGOMAXPROCS(1, func() {
		var lerr error
		if dSeq, lerr = LoadShardedDirected(bytes.NewReader(dimg)); lerr != nil {
			t.Error(lerr)
		}
	})
	withGOMAXPROCS(4, func() {
		var lerr error
		if dPar, lerr = LoadShardedDirected(bytes.NewReader(dimg)); lerr != nil {
			t.Error(lerr)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	if !bytes.Equal(pipelineSaveBytes(t, dSeq.Save), pipelineSaveBytes(t, dPar.Save)) {
		t.Fatal("parallel LoadShardedDirected restored a different store than sequential")
	}
}

// TestParallelLoadCorruptImage: truncations and flipped bytes must
// error out of the parallel loader exactly as they do out of the
// sequential one — never panic, never half-load.
func TestParallelLoadCorruptImage(t *testing.T) {
	s, err := NewSharded(Config{K: 16, Seed: 40163}, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.ProcessEdges(randomEdges(100, 1500, 40169))
	img := pipelineSaveBytes(t, s.Save)
	withGOMAXPROCS(4, func() {
		for cut := 0; cut < len(img); cut += 97 {
			if _, err := LoadSharded(bytes.NewReader(img[:cut])); err == nil {
				t.Fatalf("truncation at %d loaded without error", cut)
			}
		}
		for off := 8; off < len(img); off += 131 {
			mut := append([]byte(nil), img...)
			mut[off] ^= 0x40
			// A flip may land in checksummed payload (error) or in a
			// degree counter (loads, different store) — it must never
			// panic. The loader's own validation decides.
			_, _ = LoadSharded(bytes.NewReader(mut))
		}
	})
}

// TestInPlaceLoadMatchesStream: with the shard fan-out on, decoding a
// container in place from a random-access input must accept and reject
// exactly the images the sequential stream decoder does, with the same
// error text and the same restored store — uniform and tiered, across
// truncations and bit flips (a flipped id may repeat another vertex; a
// flipped arrival counter moves a record to another tier).
func TestInPlaceLoadMatchesStream(t *testing.T) {
	uniform := Config{K: 8, Seed: 3, Degrees: DegreeDistinctKMV}
	tiered := uniform
	tiered.Tiers = [MaxTiers]Tier{{K: 2}, {K: 4, PromoteAt: 3}, {K: 8, PromoteAt: 6}}
	edges := skewedEdges(8, 32, 5)
	var imgs [][]byte
	for _, cfg := range []Config{uniform, tiered} {
		s := must(NewSharded(cfg, 3))
		s.ProcessEdges(edges)
		d := must(NewShardedDirected(cfg, 3))
		d.ProcessArcs(edges)
		imgs = append(imgs, pipelineSaveBytes(t, s.Save), pipelineSaveBytes(t, d.Save))
	}
	check := func(in []byte) {
		s, err := LoadAny(bytes.NewReader(in))
		streamed, serr := LoadAny(struct{ io.Reader }{bytes.NewReader(in)})
		if fmt.Sprint(err) != fmt.Sprint(serr) {
			t.Fatalf("in place: %v; streamed: %v", err, serr)
		}
		if err == nil && !bytes.Equal(pipelineSaveBytes(t, s.Save), pipelineSaveBytes(t, streamed.Save)) {
			t.Fatal("in-place and streamed loads restore different stores")
		}
	}
	step := 1
	if testing.Short() {
		step = 5
	}
	withGOMAXPROCS(4, func() {
		for _, img := range imgs {
			for n := 0; n < len(img); n += step {
				check(img[:n])
			}
			mut := append([]byte(nil), img...)
			for off := 0; off < len(mut); off += step {
				for _, bit := range []byte{0x01, 0x80} {
					mut[off] ^= bit
					check(mut)
					mut[off] ^= bit
				}
			}
		}
	})
}
