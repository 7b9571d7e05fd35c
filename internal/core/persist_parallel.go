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

// imageLayout is what a store image's header and arrival counters tell
// before it is decoded: its length and, per register bank, how many of
// its vertices land in each tier.
type imageLayout struct {
	size  int64
	slots [2][MaxTiers]int
}

// layout sizes the image of format f that starts at image offset off of
// a random-access input, reading its header from a section of the input
// with the decoder's own header reader. ok is false on a stream, for
// biased records (whose size only decoding tells), and for anything
// that does not fit the input; the decoder then reports the fault.
func (f *storeFormat) layout(rd *binReader, off int64) (lay imageLayout, ok bool) {
	if rd.src == nil {
		return lay, false
	}
	sec := rd.section(off, rd.size-off)
	h, err := f.readHeader(sec)
	if err != nil || h.cfg.EnableBiased {
		return lay, false
	}
	p := sec.off
	tiers := h.cfg.activeTiers()
	if tiers == nil {
		rec := int64(f.minRecord(h.cfg))
		if h.count > uint64(rd.size-p)/uint64(rec) {
			return lay, false
		}
		for b := range f.banks {
			lay.slots[b][0] = int(h.count)
		}
		lay.size = p - off + int64(h.count)*rec
		return lay, true
	}
	// Each record's spans are as wide as the tier its arrival counter has
	// earned — the tier the decoder promotes it to. The scan ends within
	// the input: every record moves p on by at least f.head bytes.
	var word [16]byte
	for i := uint64(0); i < h.count; i++ {
		if !rd.peekAt(word[:8*f.banks], p+8) {
			return lay, false
		}
		p += int64(f.head)
		for b := range f.banks {
			t := tierFor(tiers, int64(binary.LittleEndian.Uint64(word[8*b:])))
			lay.slots[b][t]++
			p += 16 * int64(tiers[t].K)
		}
	}
	lay.size = p - off
	return lay, p <= rd.size
}

// reservation sizes a store loading an image of format f, which began
// at image offset start and has header h: the vertex map gets n entries
// and tier t of register bank b slots[b][t] slots. Neither exceeds what
// the unread input can back (binReader.backable). A tiered store's tier
// counts come from the image's layout. A stream has neither, so nothing
// is reserved.
func (f *storeFormat) reservation(rd *binReader, start int64, h storeHeader) (n int, slots [2][MaxTiers]int) {
	n = rd.backable(h.count, f.minRecord(h.cfg))
	if !h.cfg.tiered() {
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
			parallelRange(nShards, workersFor(nShards, 1), func(lo, hi int) {
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
			// The sections were read instead of rd: move its offset to
			// the images' end, where binReader.end looks for more input.
			rd.off = offs[nShards]
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
