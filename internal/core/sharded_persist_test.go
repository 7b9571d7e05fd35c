package core

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

func TestShardedSaveLoadRoundTrip(t *testing.T) {
	edges := randomEdges(200, 5000, 601)
	s, err := NewSharded(Config{K: 64, Seed: 607, Degrees: DegreeDistinctKMV}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		s.ProcessEdge(e)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSharded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumShards() != 5 {
		t.Errorf("NumShards = %d, want 5", loaded.NumShards())
	}
	if loaded.NumEdges() != s.NumEdges() || loaded.NumVertices() != s.NumVertices() {
		t.Errorf("counts differ: %d/%d vs %d/%d",
			loaded.NumEdges(), loaded.NumVertices(), s.NumEdges(), s.NumVertices())
	}
	x := rng.NewXoshiro256(613)
	for i := 0; i < 300; i++ {
		u, v := uint64(x.Intn(200)), uint64(x.Intn(200))
		if s.EstimateJaccard(u, v) != loaded.EstimateJaccard(u, v) ||
			s.EstimateCommonNeighbors(u, v) != loaded.EstimateCommonNeighbors(u, v) ||
			s.EstimateAdamicAdar(u, v) != loaded.EstimateAdamicAdar(u, v) ||
			s.Degree(u) != loaded.Degree(u) {
			t.Fatalf("loaded sharded store diverges at (%d,%d)", u, v)
		}
	}
	// The loaded store must accept further ingest and stay consistent
	// with the original fed the same continuation.
	more := randomEdges(200, 500, 617)
	for _, e := range more {
		s.ProcessEdge(e)
		loaded.ProcessEdge(e)
	}
	for i := 0; i < 100; i++ {
		u, v := uint64(x.Intn(200)), uint64(x.Intn(200))
		if s.EstimateJaccard(u, v) != loaded.EstimateJaccard(u, v) {
			t.Fatalf("post-resume divergence at (%d,%d)", u, v)
		}
	}
}

func TestLoadShardedErrors(t *testing.T) {
	if _, err := LoadSharded(strings.NewReader("")); err == nil {
		t.Error("empty input should error")
	}
	if _, err := LoadSharded(strings.NewReader("NOPE............")); err == nil {
		t.Error("bad magic should error")
	}
	// Valid prefix, truncated shard data.
	s, _ := NewSharded(Config{K: 8, Seed: 1}, 2)
	for _, e := range randomEdges(20, 100, 619) {
		s.ProcessEdge(e)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()*2/3]
	if _, err := LoadSharded(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated input should error")
	}
	// Corrupted version.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[4] = 0xee
	if _, err := LoadSharded(bytes.NewReader(bad)); err == nil {
		t.Error("bad version should error")
	}
}

func TestShardedSaveConsistencyAcrossShardBoundaries(t *testing.T) {
	// The regression this guards: LoadSketchStore used to wrap the shared
	// reader in a fresh bufio.Reader, whose read-ahead swallowed the next
	// shard's bytes. With many small shards every boundary is exercised.
	s, _ := NewSharded(Config{K: 4, Seed: 3}, 16)
	for _, e := range randomEdges(500, 3000, 631) {
		s.ProcessEdge(e)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSharded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumVertices() != s.NumVertices() {
		t.Errorf("vertices %d != %d after 16-shard round trip",
			loaded.NumVertices(), s.NumVertices())
	}
}

// TestContainerRejectsMisplacedVertex: an LPSH or LPDH image whose shard
// holds a vertex that hashes to another shard is rejected, naming the
// shard and the vertex. Loaded, such a vertex would be unreachable:
// Knows reports false, its pairs score 0, and ingesting it again makes
// a second copy in its own shard. The image re-saves to the same bytes,
// so only the loader can catch it. Both the sequential and the parallel
// decode are checked.
func TestContainerRejectsMisplacedVertex(t *testing.T) {
	u := uint64(1)
	for shardFor(u, 2) != 1 {
		u++
	}
	v := u + 1
	for shardFor(v, 2) != 0 {
		v++
	}
	cfg := Config{K: 8, Seed: 1}
	for _, tc := range []struct {
		magic string
		store func() (Store, error)
		load  func(io.Reader) error
	}{
		{shardedMagic,
			func() (Store, error) { return NewSketchStore(cfg) },
			func(r io.Reader) error { _, err := LoadSharded(r); return err }},
		{shardedDirectedMagic,
			func() (Store, error) { return NewDirectedStore(cfg) },
			func(r io.Reader) error { _, err := LoadShardedDirected(r); return err }},
	} {
		// Shard 0 holds the whole edge (u, v); shard 1 is empty.
		full, err := tc.store()
		if err != nil {
			t.Fatal(err)
		}
		full.Ingest(stream.Edge{U: u, V: v})
		empty, err := tc.store()
		if err != nil {
			t.Fatal(err)
		}
		var img bytes.Buffer
		bw := newBinWriter(&img)
		bw.str(tc.magic)
		bw.u32(shardedVersion)
		bw.u32(2)
		bw.u64(1)
		if err := full.Save(bw.bw); err != nil {
			t.Fatal(err)
		}
		if err := empty.Save(bw.bw); err != nil {
			t.Fatal(err)
		}
		if err := bw.flush(); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("vertex %d is stored in shard 0 but hashes to shard 1", u)
		for _, procs := range []int{1, 4} {
			withGOMAXPROCS(procs, func() {
				err := tc.load(bytes.NewReader(img.Bytes()))
				if err == nil || !strings.Contains(err.Error(), "shard 0:") || !strings.Contains(err.Error(), want) {
					t.Errorf("%s at GOMAXPROCS %d: load error %v, want one naming shard 0 and %q", tc.magic, procs, err, want)
				}
			})
		}
	}
}

// TestContainerRejectsBiasedShard: NewSharded refuses biased sketches
// and triangle tracking, so an LPSH image whose shard header sets either
// flag is rejected, naming a byte offset. Loaded, every vertex ingested
// afterwards would allocate a biased sketch that the batched apply never
// updates. Both reader shapes are checked, one shard and two, through
// the sequential and the parallel decode.
func TestContainerRejectsBiasedShard(t *testing.T) {
	u := uint64(1)
	for shardFor(u, 2) != 0 {
		u++
	}
	v := u + 1
	for shardFor(v, 2) != 0 {
		v++
	}
	for _, cfg := range []Config{
		{K: 8, Seed: 1, EnableBiased: true, TrackTriangles: true},
		{K: 8, Seed: 1, EnableBiased: true},
		{K: 8, Seed: 1, TrackTriangles: true},
	} {
		for _, nShards := range []int{1, 2} {
			// Shard 0 holds the edge (u, v), which hashes there under
			// either shard count; any other shard is empty.
			var img bytes.Buffer
			bw := newBinWriter(&img)
			bw.str(shardedMagic)
			bw.u32(shardedVersion)
			bw.u32(uint32(nShards))
			bw.u64(1)
			for i := range nShards {
				shard := must(NewSketchStore(cfg))
				if i == 0 {
					shard.ProcessEdge(stream.Edge{U: u, V: v})
				}
				if err := shard.Save(bw.bw); err != nil {
					t.Fatal(err)
				}
			}
			if err := bw.flush(); err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{1, 4} {
				withGOMAXPROCS(procs, func() {
					for _, r := range []io.Reader{bytes.NewReader(img.Bytes()), struct{ io.Reader }{bytes.NewReader(img.Bytes())}} {
						_, err := LoadAny(r)
						if err == nil || !strings.Contains(err.Error(), "byte") || !strings.Contains(err.Error(), "biased or triangles flag") {
							t.Errorf("biased %v, triangles %v, %d shards, from %T at GOMAXPROCS %d: load error %v",
								cfg.EnableBiased, cfg.TrackTriangles, nShards, r, procs, err)
						}
					}
				})
			}
		}
	}
}
