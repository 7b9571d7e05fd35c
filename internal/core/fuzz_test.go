package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"testing"
)

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
// LPDY — in both its uniform (v1) and tiered (v2) variant, and with a
// biased LPSK image that tracks triangles, truncations, and forged
// headers that drive each hardening check. Each input goes through both
// reader shapes: a *bytes.Reader, which the loaders decode in place, and
// a plain stream they decode sequentially. Both must accept and reject
// the same inputs with the same error, without panicking or
// over-allocating. The loaders accept only what Save writes, so an
// accepted image re-saves, from either shape, to exactly its own bytes,
// and every loaded bank satisfies the KMV degree-cache invariant.
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
	// A small LPSK image, a truncation, a flipped K byte, and the
	// shortest inputs.
	small := must(NewSketchStore(Config{K: 4, Seed: 1}))
	for _, e := range randomEdges(10, 40, 1) {
		small.ProcessEdge(e)
	}
	valid := saveBytes(f, small.Save)
	f.Add(valid)
	f.Add(valid[:10])
	corrupt := bytes.Clone(valid)
	corrupt[8] ^= 0xff
	f.Add(corrupt)
	f.Add([]byte("LPSK"))
	f.Add([]byte{})
	// A biased-sketch image (exercises the per-vertex entry lists), its
	// truncations at the header/vertex boundaries, and forged headers
	// that drive each hardening check: impossible K, out-of-range enum
	// bytes, non-boolean flags, and a vertex count no input could back.
	b := must(NewSketchStore(Config{K: 4, Seed: 2, EnableBiased: true, TrackTriangles: true}))
	for _, e := range randomEdges(10, 40, 2) {
		b.ProcessEdge(e)
	}
	biased := saveBytes(f, b.Save)
	f.Add(biased)
	f.Add(biased[:24])            // through the flags
	f.Add(biased[:48])            // through the vertex count
	f.Add(biased[:len(biased)-3]) // torn final vertex
	forge := func(mutate func(img []byte)) []byte {
		img := bytes.Clone(valid)
		mutate(img)
		return img
	}
	f.Add(forge(func(img []byte) { binary.LittleEndian.PutUint32(img[8:12], 0) }))      // K = 0
	f.Add(forge(func(img []byte) { binary.LittleEndian.PutUint32(img[8:12], 1<<30) }))  // K beyond bound
	f.Add(forge(func(img []byte) { img[20] = 0xff }))                                   // unknown hash family
	f.Add(forge(func(img []byte) { img[21] = 0xff }))                                   // unknown degree mode
	f.Add(forge(func(img []byte) { img[22] = 2 }))                                      // non-boolean flag
	f.Add(forge(func(img []byte) { binary.LittleEndian.PutUint64(img[40:48], 1<<62) })) // forged vertex count

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
		for _, st := range []Store{s, streamed} {
			var out bytes.Buffer
			if err := st.Save(&out); err != nil || !bytes.Equal(out.Bytes(), img) {
				t.Fatalf("an accepted image does not re-save to its own bytes (err %v)", err)
			}
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

// TestTornWideRecordAllocatesOneTier: a torn directed record on the
// widest tier ladder, whose counters put both sides in the top tier,
// is rejected after allocating one span per side, not one in every
// tier it would have been promoted through (96 MiB for its 104 bytes),
// from either reader shape.
func TestTornWideRecordAllocatesOneTier(t *testing.T) {
	wide := Config{K: maxPersistK, Seed: 3, Degrees: DegreeDistinctKMV, Tiers: [MaxTiers]Tier{
		{K: maxPersistK - 2}, {K: maxPersistK - 1, PromoteAt: 1}, {K: maxPersistK, PromoteAt: 2}}}
	var img bytes.Buffer
	bw := newBinWriter(&img)
	lpsdFormat.writeHeader(bw, storeHeader{cfg: wide, count: 1})
	bw.u64(7) // id
	bw.u64(5) // out-arrivals
	bw.u64(5) // in-arrivals; the spans never come
	if err := bw.flush(); err != nil {
		t.Fatal(err)
	}
	n := img.Len()
	for _, r := range []io.Reader{bytes.NewReader(img.Bytes()), struct{ io.Reader }{bytes.NewReader(img.Bytes())}} {
		if _, err := loadAnyBounded(t, r, n); err == nil {
			t.Fatalf("a %d-byte torn image loaded from a %T", n, r)
		}
	}
}
