package core

import (
	"encoding/binary"
	"runtime"
)

// Parallel shard loading. The sharded container formats (LPSH, LPDH)
// concatenate per-shard images that are mutually independent, so on a
// multi-proc host decoding can fan out across shards.
//
// Load decodes in place. From a random-access input — the payload of
// the snapshot file wal.LoadNewestSnapshot hands over, a checkpoint
// file, an in-memory image — the loader sizes every shard image from
// its header (storeFormat.layout) and decodes each shard from its own
// section of the input, so the image is never copied whole. A uniform
// image's records are fixed-size (24 + 16K bytes undirected, 24 + 32K
// directed); a tiered image's record is as wide as the tier its arrival
// counter has earned, so sizing it takes one buffered pass over the
// counters. A stream, or an image whose headers don't size cleanly
// (biased records, corruption), is decoded sequentially instead, which
// reports the same errors.
//
// Every section hashes what it decodes, and must decode to its end, so
// the section checksums, folded together in image order
// (crc32Combine), cover every byte of the image exactly once: the
// snapshot loader checks that sum against the file's own before a store
// is returned (checkedInput).
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
// a random-access input, reading its header with the decoder's own
// header reader and, for a tiered image, its arrival counters, through
// the input's scanner. What it reads only sizes the image: the decoder
// reads every byte again. ok is false on a stream, for biased records
// (whose size only decoding tells), and for anything that does not fit
// the input; the decoder then reports the fault.
func (f *storeFormat) layout(rd *binReader, off int64) (lay imageLayout, ok bool) {
	if rd.src == nil {
		return lay, false
	}
	sc := rd.scanner(off)
	h, err := f.readHeader(sc)
	if err != nil || h.cfg.EnableBiased {
		return lay, false
	}
	tiers := h.cfg.activeTiers()
	if tiers == nil {
		rec := int64(f.minRecord(h.cfg))
		if h.count > uint64(rd.size-sc.off)/uint64(rec) {
			return lay, false
		}
		for b := range f.banks {
			lay.slots[b][0] = int(h.count)
		}
		lay.size = sc.off - off + int64(h.count)*rec
		return lay, true
	}
	// Each record's spans are as wide as the tier its arrival counter has
	// earned — the tier the decoder promotes it to. The scan ends within
	// the input: every record moves it on by at least f.head bytes.
	for i := uint64(0); i < h.count; i++ {
		if sc.skip(8) != nil { // the id
			return lay, false
		}
		counters, err := sc.staged(8 * f.banks)
		if err != nil {
			return lay, false
		}
		rest := f.head - 8 - 8*f.banks
		for b := range f.banks {
			t := tierFor(tiers, int64(binary.LittleEndian.Uint64(counters[8*b:])))
			lay.slots[b][t]++
			rest += 16 * tiers[t].K
		}
		if sc.skip(rest) != nil {
			return lay, false
		}
	}
	lay.size = sc.off - off
	return lay, true
}

// reservation sizes a store loading an image of format f, which began
// at image offset start and has header h: the vertex map gets n entries
// and tier t of register bank b slots[b][t] slots, one per vertex the
// loader places there. Neither exceeds what the unread input can back
// (binReader.backable). A tiered store's tier counts come from the
// image's layout. A stream has neither, so nothing is reserved.
func (f *storeFormat) reservation(rd *binReader, start int64, h storeHeader) (n int, slots [2][MaxTiers]int) {
	n = rd.backable(h.count, f.minRecord(h.cfg))
	if !h.cfg.tiered() {
		for b := range f.banks {
			slots[b][0] = n
		}
		return n, slots
	}
	if rd.lay != nil {
		return n, rd.lay.slots
	}
	if lay, ok := f.layout(rd, start); ok {
		slots = lay.slots
	}
	return n, slots
}

// loadShards decodes the nShards store images that follow a container
// header in rd. When the fan-out is worth it and every image sizes from
// its header, the images are decoded in parallel, each from its own
// section of the random-access input, and the sections' checksums are
// folded into rd's; otherwise one after another from rd. Either way the
// first failing shard in index order is reported, with the error the
// sequential decoder gives: each section holds exactly the bytes that
// decoder would read for its shard.
func loadShards[T any](rd *binReader, nShards int, f *storeFormat,
	decode func(*binReader) (T, error),
	wrap func(shard int, err error) error) ([]T, error) {

	shards := make([]T, nShards)
	if parallelPersist(nShards) {
		if lays, offs, ok := shardLayouts(rd, nShards, f); ok {
			errs := make([]error, nShards)
			crcs := make([]uint32, nShards)
			parallelRange(nShards, workersFor(nShards, 1), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					sec := rd.section(offs[i], offs[i+1]-offs[i])
					sec.shard, sec.nShards, sec.lay = i, nShards, &lays[i]
					shards[i], errs[i] = decode(sec)
					if errs[i] == nil && sec.off < sec.size {
						// Coverage is exact: a byte of the section left
						// unread would be a byte no checksum saw.
						errs[i] = sec.corrupt("shard image ends %d bytes before its section", sec.size-sec.off)
					}
					crcs[i] = sec.crc
				}
			})
			for i, err := range errs {
				if err != nil {
					return nil, wrap(i, err)
				}
			}
			// The sections were read instead of rd: move its offset to
			// the images' end, where binReader.end looks for more input,
			// and extend its checksum over them in image order.
			for i, c := range crcs {
				rd.crc = crc32Combine(rd.crc, c, offs[i+1]-offs[i])
			}
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

// shardLayouts lays out the nShards images after rd's position: each
// one's layout, and the image offsets at which each starts, followed by
// the end of the last.
func shardLayouts(rd *binReader, nShards int, f *storeFormat) ([]imageLayout, []int64, bool) {
	if rd.src == nil {
		return nil, nil, false
	}
	lays := make([]imageLayout, nShards)
	offs := make([]int64, nShards+1)
	offs[0] = rd.off
	for i := range lays {
		var ok bool
		if lays[i], ok = f.layout(rd, offs[i]); !ok {
			return nil, nil, false
		}
		offs[i+1] = offs[i] + lays[i].size
	}
	return lays, offs, true
}
