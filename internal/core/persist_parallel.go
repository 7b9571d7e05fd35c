package core

import (
	"encoding/binary"
	"runtime"
)

// Parallel shard loading. The sharded container formats (LPSH, LPDH)
// concatenate per-shard images that are mutually independent, so on a
// multi-proc host decoding can fan out across shards.
//
// Load decodes in place. The WAL snapshot loader hands over a
// random-access reader on the payload it has just CRC-checked, so the
// loader sizes every shard image from its header (storeFormat.layout)
// and decodes each shard from its own section of that payload — no copy
// of the image is made. A uniform image's records are fixed-size
// (24 + 16K bytes undirected, 24 + 32K directed); a tiered image's
// record is as wide as the tier its arrival counter has earned, so
// sizing it takes one pass over the counters. A stream, or an image
// whose headers don't size cleanly (biased records, corruption), is
// decoded sequentially instead, which reports the same errors.
//
// The fan-out engages only at GOMAXPROCS > 1 with more than one shard;
// otherwise the sequential path runs. Save does not fan out: encoding
// straight into the output's buffer costs less than encoding each shard
// into a buffer of its own and copying it out.

// parallelPersist reports whether the shard fan-out is worth engaging.
func parallelPersist(nShards int) bool {
	return nShards > 1 && runtime.GOMAXPROCS(0) > 1
}

// storeFormat is what sizing a single-store image takes to know about
// its format. Both formats (persist.go, directed_persist.go) open with
// magic | version u32 | K u32 | seed u64 | four flag bytes, then carry
// the tier ladder on version 2, the store totals and the vertex count;
// every vertex record opens with 24 bytes of id and counters — the
// arrival counter of register bank b at record byte 8+8b — followed by
// a values and an argmin span per bank, each as wide as the bank's tier.
type storeFormat struct {
	magic  string
	totals int64 // bytes of store totals before the vertex count
	banks  int   // register banks per vertex record
	biased bool  // flag byte 2 marks biased records, which vary in size
}

var (
	lpskFormat = &storeFormat{magic: persistMagic, totals: 16, banks: 1, biased: true}
	lpsdFormat = &storeFormat{magic: directedMagic, totals: 8, banks: 2}
)

// Header bytes of a uniform (v1) image, through the vertex count.
//
// LPSK: magic 4 | version 4 | K 4 | seed 8 | flags 4 (hash, degrees,
// biased, triangles) | edges 8 | triangles 8 | vertexCount 8 = 48.
//
// LPSD: magic 4 | version 4 | K 4 | seed 8 | flags 4 | arcs 8 |
// vertexCount 8 = 40.
const (
	lpskHeaderBytes = 48
	lpsdHeaderBytes = 40
)

// imageLayout is what a store image's header and arrival counters tell
// before it is decoded: its length and, per register bank, how many of
// its vertices land in each tier.
type imageLayout struct {
	size  int64
	slots [2][MaxTiers]int
}

// layout sizes the image of format f that starts at image offset off of
// a random-access input. It checks only what sizing needs — full
// validation stays with the decoder — and ok is false on a stream, for
// biased records (whose size only decoding tells), and for anything
// that does not fit the input; the decoder then reports the fault.
func (f *storeFormat) layout(rd *binReader, off int64) (lay imageLayout, ok bool) {
	le := binary.LittleEndian
	var hdr [24]byte
	if !rd.peekAt(hdr[:], off) || string(hdr[:4]) != f.magic {
		return lay, false
	}
	k := le.Uint32(hdr[8:])
	if k == 0 || k > maxPersistK || (f.biased && hdr[22] != 0) {
		return lay, false
	}
	tiers := [MaxTiers]Tier{{K: int(k)}}
	nTiers := 1
	p := off + int64(len(hdr))
	var word [16]byte
	switch le.Uint32(hdr[4:]) {
	case 1:
	case 2:
		if !rd.peekAt(word[:4], p) {
			return lay, false
		}
		nTiers = int(le.Uint32(word[:]))
		if nTiers < 2 || nTiers > MaxTiers {
			return lay, false
		}
		p += 4
		for t := range tiers[:nTiers] {
			if !rd.peekAt(word[:12], p) {
				return lay, false
			}
			tk := le.Uint32(word[:])
			if tk == 0 || tk > maxPersistK {
				return lay, false
			}
			tiers[t] = Tier{K: int(tk), PromoteAt: int64(le.Uint64(word[4:]))}
			p += 12
		}
	default:
		return lay, false
	}
	if !rd.peekAt(word[:8], p+f.totals) {
		return lay, false
	}
	count := le.Uint64(word[:])
	p += f.totals + 8
	if nTiers == 1 {
		rec := 24 + int64(f.banks)*16*int64(k)
		if count > uint64(rd.size-p)/uint64(rec) {
			return lay, false
		}
		for b := range f.banks {
			lay.slots[b][0] = int(count)
		}
		lay.size = p - off + int64(count)*rec
		return lay, true
	}
	// Each record's spans are as wide as the tier its arrival counter has
	// earned — the tier the decoder promotes it to. The scan ends within
	// the input: every record moves p on by at least 24 bytes.
	for i := uint64(0); i < count; i++ {
		if !rd.peekAt(word[:8*f.banks], p+8) {
			return lay, false
		}
		p += 24
		for b := range f.banks {
			t := tierFor(tiers[:nTiers], int64(le.Uint64(word[8*b:])))
			lay.slots[b][t]++
			p += 16 * int64(tiers[t].K)
		}
	}
	lay.size = p - off
	return lay, p <= rd.size
}

// reservation sizes a store loading an image of format f, which began
// at image offset start and declares count vertex records of at least
// minRec bytes: the vertex map gets n entries and tier t of register
// bank b slots[b][t] slots. Neither exceeds what the unread input can
// back (binReader.backable). A tiered store's tier counts come from the
// image's layout. A stream has neither, so nothing is reserved.
func (f *storeFormat) reservation(rd *binReader, start int64, count uint64, tiered bool, minRec int) (n int, slots [2][MaxTiers]int) {
	n = rd.backable(count, minRec)
	if !tiered {
		for b := range f.banks {
			slots[b][0] = n
		}
		return n, slots
	}
	lay, ok := f.layout(rd, start)
	if !ok {
		return n, slots
	}
	for b := range f.banks {
		above := 0
		for t := MaxTiers - 1; t >= 0; t-- {
			slots[b][t] = lay.slots[b][t]
			if above > 0 {
				// A vertex promoted past tier t holds a slot there until
				// the next vertex reuses it.
				slots[b][t]++
			}
			above += lay.slots[b][t]
		}
	}
	return n, slots
}

// loadShards decodes the nShards store images that follow a container
// header in rd. When the fan-out is worth it and every image sizes from
// its header, the images are decoded in parallel, each from its own
// section of the random-access input; otherwise one after another from
// rd. Either way the first failing shard in index order is reported,
// with the error the sequential decoder gives: each section holds
// exactly the bytes that decoder would read for its shard.
func loadShards[T any](rd *binReader, nShards int, f *storeFormat,
	decode func(*binReader) (T, error),
	wrap func(shard int, err error) error) ([]T, error) {

	shards := make([]T, nShards)
	if parallelPersist(nShards) {
		if offs, ok := shardOffsets(rd, nShards, f); ok {
			errs := make([]error, nShards)
			parallelRange(nShards, 1, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					sec := rd.section(offs[i], offs[i+1]-offs[i])
					sec.shard, sec.nShards = i, nShards
					shards[i], errs[i] = decode(sec)
				}
			})
			for i, err := range errs {
				if err != nil {
					return nil, wrap(i, err)
				}
			}
			return shards, nil
		}
	}
	for i := range shards {
		rd.shard, rd.nShards = i, nShards
		s, err := decode(rd)
		if err != nil {
			return nil, wrap(i, err)
		}
		shards[i] = s
	}
	return shards, nil
}

// shardOffsets returns the image offsets at which each of the nShards
// images after rd's position starts, followed by the end of the last.
func shardOffsets(rd *binReader, nShards int, f *storeFormat) ([]int64, bool) {
	if rd.src == nil {
		return nil, false
	}
	offs := make([]int64, nShards+1)
	offs[0] = rd.off
	for i := range nShards {
		lay, ok := f.layout(rd, offs[i])
		if !ok {
			return nil, false
		}
		offs[i+1] = offs[i] + lay.size
	}
	return offs, true
}
