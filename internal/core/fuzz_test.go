package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"testing"
)

// FuzzLoadSketchStore feeds arbitrary bytes to the persistence loader:
// it must never panic, and any input it accepts must save back to an
// equivalent store.
func FuzzLoadSketchStore(f *testing.F) {
	// Seed corpus: a real saved store, plus truncations and corruptions.
	s, err := NewSketchStore(Config{K: 4, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range randomEdges(10, 40, 1) {
		s.ProcessEdge(e)
	}
	var valid bytes.Buffer
	if err := s.Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:10])
	corrupt := append([]byte(nil), valid.Bytes()...)
	corrupt[8] ^= 0xff
	f.Add(corrupt)
	f.Add([]byte("LPSK"))
	f.Add([]byte{})
	// A biased-sketch image (exercises the per-vertex entry lists), its
	// truncations at the header/vertex boundaries, and forged headers
	// that drive each hardening check: impossible K, out-of-range enum
	// bytes, non-boolean flags, and a vertex count no input could back.
	b, err := NewSketchStore(Config{K: 4, Seed: 2, EnableBiased: true, TrackTriangles: true})
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range randomEdges(10, 40, 2) {
		b.ProcessEdge(e)
	}
	var biased bytes.Buffer
	if err := b.Save(&biased); err != nil {
		f.Fatal(err)
	}
	f.Add(biased.Bytes())
	f.Add(biased.Bytes()[:24])                    // through the flags
	f.Add(biased.Bytes()[:48])                    // through the vertex count
	f.Add(biased.Bytes()[:len(biased.Bytes())-3]) // torn final vertex
	forge := func(mutate func(img []byte)) []byte {
		img := append([]byte(nil), valid.Bytes()...)
		mutate(img)
		return img
	}
	f.Add(forge(func(img []byte) { binary.LittleEndian.PutUint32(img[8:12], 0) }))      // K = 0
	f.Add(forge(func(img []byte) { binary.LittleEndian.PutUint32(img[8:12], 1<<30) }))  // K beyond bound
	f.Add(forge(func(img []byte) { img[20] = 0xff }))                                   // unknown hash family
	f.Add(forge(func(img []byte) { img[21] = 0xff }))                                   // unknown degree mode
	f.Add(forge(func(img []byte) { img[22] = 2 }))                                      // non-boolean flag
	f.Add(forge(func(img []byte) { binary.LittleEndian.PutUint64(img[40:48], 1<<62) })) // forged vertex count

	f.Fuzz(func(t *testing.T, input []byte) {
		loaded, err := LoadSketchStore(bytes.NewReader(input))
		if err != nil {
			return // rejected: fine
		}
		// Accepted input: the store must be usable and must re-save to
		// something loadable that answers identically.
		var out bytes.Buffer
		if err := loaded.Save(&out); err != nil {
			t.Fatalf("re-save of accepted store failed: %v", err)
		}
		again, err := LoadSketchStore(&out)
		if err != nil {
			t.Fatalf("re-load of re-saved store failed: %v", err)
		}
		if again.NumVertices() != loaded.NumVertices() || again.NumEdges() != loaded.NumEdges() {
			t.Fatal("save/load not idempotent on accepted input")
		}
		// Queries must not panic or produce invalid values.
		for u := uint64(0); u < 5; u++ {
			for v := uint64(0); v < 5; v++ {
				j := loaded.EstimateJaccard(u, v)
				if j < 0 || j > 1 {
					t.Fatalf("loaded store yields invalid Jaccard %v", j)
				}
			}
		}
	})
}

// loadAllocBound is the most a load of an n-byte image may allocate: a
// constant for the fixed-size bookkeeping any header can ask for (shard
// and generation tables, one register span not yet backed by input —
// 16 MiB at the widest K), plus a per-byte factor covering the dynamic
// store, whose vertices hold depth entries per register (up to 255 ×
// 24 bytes for a 6-byte register record). What it rules out is
// allocation driven by header fields alone, such as building a hash
// family for a forged K.
func loadAllocBound(n int) uint64 { return 64<<20 + 1024*uint64(n) }

// FuzzLoadAny feeds arbitrary bytes to the magic-sniffing loader, seeded
// with one valid image of every format — LPSK, LPSH, LPSW, LPSD, LPDH,
// LPDY — in both its uniform (v1) and tiered (v2) variant. Each input
// goes through both reader shapes: a *bytes.Reader, which the loaders
// decode in place, and a plain stream they decode sequentially. Both
// must accept and reject the same inputs with the same error, without
// panicking or over-allocating. An accepted image re-saves, from either
// shape, to the same canonical image (vertices in id order, reserved
// bytes zeroed), which loads back and re-saves byte-identically, and
// every loaded bank satisfies the KMV degree-cache invariant.
func FuzzLoadAny(f *testing.F) {
	uniform := Config{K: 8, Seed: 3, Degrees: DegreeDistinctKMV}
	tiered := Config{K: 8, Seed: 3, Degrees: DegreeDistinctKMV,
		Tiers: [MaxTiers]Tier{{K: 2}, {K: 4, PromoteAt: 3}, {K: 8, PromoteAt: 6}}}
	edges := skewedEdges(12, 60, 5)
	for _, cfg := range []Config{uniform, tiered} {
		plain := must(NewSketchStore(cfg))
		sharded := must(NewSharded(cfg, 3))
		windowed := must(NewWindowed(cfg, 40, 2))
		directed := must(NewDirectedStore(cfg))
		shardedDir := must(NewShardedDirected(cfg, 3))
		dynamic := must(NewDynamicStore(cfg, 2))
		for _, s := range []Store{plain, sharded, windowed, directed, shardedDir, dynamic} {
			for _, e := range edges {
				s.Ingest(e)
			}
			var img bytes.Buffer
			if err := s.Save(&img); err != nil {
				f.Fatal(err)
			}
			loaded, err := LoadAny(bytes.NewReader(img.Bytes()))
			if err != nil {
				f.Fatalf("%T seed does not load: %v", s, err)
			}
			var again bytes.Buffer
			if err := loaded.Save(&again); err != nil || !bytes.Equal(again.Bytes(), img.Bytes()) {
				f.Fatalf("%T seed is not canonical (err %v)", s, err)
			}
			f.Add(img.Bytes())
		}
	}
	// An empty store on the widest tier ladder: its image is headers
	// alone, so a load must not reserve register spans for it.
	wide := Config{K: maxPersistK, Seed: 3, Degrees: DegreeDistinctKMV, Tiers: [MaxTiers]Tier{
		{K: maxPersistK - 2}, {K: maxPersistK - 1, PromoteAt: 1}, {K: maxPersistK, PromoteAt: 2}}}
	var img bytes.Buffer
	if err := must(NewShardedDirected(wide, 3)).Save(&img); err != nil {
		f.Fatal(err)
	}
	f.Add(img.Bytes())

	f.Fuzz(func(t *testing.T, img []byte) {
		s, err := loadAnyBounded(t, bytes.NewReader(img), len(img))
		streamed, serr := loadAnyBounded(t, struct{ io.Reader }{bytes.NewReader(img)}, len(img))
		if fmt.Sprint(err) != fmt.Sprint(serr) {
			t.Fatalf("in place: %v; streamed: %v", err, serr)
		}
		if err != nil {
			return // rejected: fine
		}
		assertKMVCache(t, "loaded", s)
		var canon, fromStream bytes.Buffer
		if err := s.Save(&canon); err != nil {
			t.Fatalf("re-save of accepted image failed: %v", err)
		}
		if err := streamed.Save(&fromStream); err != nil || !bytes.Equal(fromStream.Bytes(), canon.Bytes()) {
			t.Fatalf("the streamed load re-saves differently (err %v)", err)
		}
		again, err := LoadAny(bytes.NewReader(canon.Bytes()))
		if err != nil {
			t.Fatalf("re-saved image does not load: %v", err)
		}
		var resaved bytes.Buffer
		if err := again.Save(&resaved); err != nil || !bytes.Equal(resaved.Bytes(), canon.Bytes()) {
			t.Fatalf("re-saved image does not re-save byte-identically (err %v)", err)
		}
		// Queries must not panic or produce invalid values.
		for u := uint64(0); u < 4; u++ {
			for v := uint64(0); v < 4; v++ {
				for _, m := range allQueryMeasures {
					got, err := s.Estimate(m, u, v)
					if err != nil {
						t.Fatal(err)
					}
					if m == QueryJaccard && (got < 0 || got > 1) {
						t.Fatalf("loaded store yields invalid Jaccard %v", got)
					}
				}
			}
		}
	})
}

// loadAnyBounded loads an n-byte image from r and fails t if that
// allocated more than loadAllocBound(n).
func loadAnyBounded(t *testing.T, r io.Reader, n int) (Store, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := LoadAny(r)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > loadAllocBound(n) {
		t.Fatalf("loading %d bytes from a %T allocated %d (err %v)", n, r, grew, err)
	}
	return s, err
}
