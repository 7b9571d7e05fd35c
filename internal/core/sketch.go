// Package core implements the paper's contribution: constant-space
// per-vertex graph sketches and constant-time-per-edge estimators for the
// streaming link-prediction measures (Jaccard coefficient, common
// neighbors, Adamic–Adar).
//
// The design follows DESIGN.md §2. Each vertex carries:
//
//   - a k-register MinHash sketch of its neighbor set, where register i
//     stores both the minimum hash value under hash function h_i and the
//     neighbor id that achieved it (the "argmin");
//   - a degree counter (exact arrival count, or a KMV distinct-count
//     estimate derived from the registers, whose sum the register bank
//     keeps up to date so a degree read is O(1));
//   - optionally, a vertex-biased bottom-k sketch used by the alternative
//     Adamic–Adar estimator (see biased.go).
//
// Processing an edge touches O(k) state per endpoint — constant time per
// edge for fixed k — and per-vertex state is O(k) words — constant space
// per vertex. Estimator definitions and their guarantees live in
// estimators.go and theory.go.
package core

import (
	"math"
	"slices"
)

// emptyRegister marks a register that has never been updated. A real hash
// value can collide with it only with probability 2^-64 per evaluation;
// the estimators additionally treat vertices with zero degree as unknown,
// so the sentinel is never load-bearing for correctness.
const emptyRegister = math.MaxUint64

// Slot encoding for tiered banks: the top bits of a slot carry the tier
// index, the low bits the slot index within that tier's arena. Tier 0
// has zero high bits, so a uniform (single-tier) bank's slots are plain
// indices — exactly the pre-tier encoding.
const (
	tierShift   = 28
	tierIdxMask = 1<<tierShift - 1
)

// bankTier is one fixed-k arena of a regBank: a struct-of-arrays block
// holding every slot of one register-budget tier, plus the free list of
// slots vacated by promotion (reused by future allocations so a stream
// of promotions does not grow the lower arenas without bound).
type bankTier struct {
	k    int
	vals []uint64 // slot s at [s*k, (s+1)*k); emptyRegister when unset
	ids  []uint64 // parallel argmin bank; empty when !trackIDs
	// kmv and empty are the per-slot KMV degree cache, kept only when
	// trackKMV: kmv[s] is the fixed-point sum of kmvTerm over slot s's
	// non-empty registers, empty[s] the number still at emptyRegister.
	// Always equal to kmvSum(regs(s)) — see update for why.
	kmv   []uint64
	empty []uint32
	free  []int32 // slot indices vacated by promotion, ready for reuse
}

// regBank is the struct-of-arrays register storage of one store (one per
// shard in the sharded modes, see DESIGN.md §2.9). Instead of a heap
// object with two slices per vertex, every vertex owns a dense slot: its
// k register values live at vals[slot*k : (slot+1)*k] of its tier's
// arena and the parallel argmin ids at the same span of ids. The layout
// buys two things the per-vertex objects could not:
//
//   - a vertex's registers are one contiguous k·8-byte span, so the query
//     kernel streams cache lines instead of chasing a pointer per vertex,
//     and a batch snapshot copies straight out of the bank;
//   - the bank grows like an appended slice (amortized doubling), so a
//     million vertices cost two allocations' worth of bookkeeping rather
//     than two million 8-word heap objects for the GC to trace.
//
// A uniform bank has exactly one tier and behaves exactly as the
// pre-tier bank did: slots are stable for the life of the store and the
// free list stays empty. A tiered bank (DESIGN.md §2.13) holds one arena
// per configured tier; promotion moves a vertex's sketch to a larger
// arena (copying the old registers as the prefix — the min-k prefix
// property keeps that a valid smaller sketch) and recycles the vacated
// slot through the tier's free list. The backing arrays DO move when an
// arena grows, and a promoted vertex's old slot may be reused: never
// cache a slot or register slice across an operation that may allocate
// or promote — re-derive with regs/argmins at the point of use. All
// mutation happens under the owning store's write lock (or in
// single-writer stores, in the writer), so concurrent readers holding
// read locks always see stable arrays and stable slots.
//
// trackIDs selects whether the argmin bank is maintained. Every live
// store tracks ids today (the weighted measures and the windowed merge
// need them); the flag exists so transient banks can skip the second
// array, and so memoryBytes reflects what is actually allocated.
//
// trackKMV selects whether the per-slot KMV degree cache is maintained;
// it is set exactly when the store's Config.Degrees is
// DegreeDistinctKMV, which makes the bank the store's degree oracle
// (see degree).
type regBank struct {
	trackIDs bool
	trackKMV bool
	tiers    []bankTier
}

// init prepares an empty bank for cfg: one arena per tier width (a
// single K-wide arena on uniform stores), with the KMV degree cache
// maintained iff cfg counts distinct degrees. New slots allocate in
// tier 0; promote moves them up.
func (b *regBank) init(cfg Config, trackIDs bool) {
	b.trackIDs = trackIDs
	b.trackKMV = cfg.Degrees == DegreeDistinctKMV
	ts := cfg.activeTiers()
	if ts == nil {
		b.tiers = []bankTier{{k: cfg.K}}
		return
	}
	b.tiers = make([]bankTier, len(ts))
	for i, t := range ts {
		b.tiers[i].k = t.K
	}
}

// alloc claims a slot in tier 0, extending the arena by one k-span
// (values initialised to emptyRegister, ids zeroed). Amortized O(k).
func (b *regBank) alloc() int32 { return b.allocAt(0) }

// allocAt claims a slot in tier t, reusing a promotion-vacated slot if
// one is free (its span is re-initialised — reused capacity HAS held
// data) and extending the arena otherwise.
func (b *regBank) allocAt(t int) int32 {
	tr := &b.tiers[t]
	var idx int32
	if n := len(tr.free); n > 0 {
		idx = tr.free[n-1]
		tr.free = tr.free[:n-1]
	} else {
		idx = int32(len(tr.vals) / tr.k)
		tr.vals = bankGrow(tr.vals, tr.k)
		if b.trackIDs {
			tr.ids = bankGrow(tr.ids, tr.k)
		}
		if b.trackKMV {
			tr.kmv = append(tr.kmv, 0)
			tr.empty = append(tr.empty, 0)
		}
	}
	o := int(idx) * tr.k
	span := tr.vals[o : o+tr.k]
	for i := range span {
		span[i] = emptyRegister
	}
	if b.trackIDs {
		clear(tr.ids[o : o+tr.k])
	}
	if b.trackKMV {
		tr.kmv[idx] = 0
		tr.empty[idx] = uint32(tr.k)
	}
	return int32(t)<<tierShift | idx
}

// promote moves slot's sketch into the (larger-k) tier to and returns
// the new slot. The old registers become the prefix of the new span —
// by the min-k prefix property the prefix was already a valid sketch of
// everything folded so far — and the new registers above them start
// empty (they will only ever see neighbors arriving after promotion;
// see DESIGN.md §2.13 for the resulting estimator contract). The cached
// KMV sum carries over unchanged and the empty count grows by the new
// registers, which is exactly kmvSum of the widened span. The vacated
// slot is pushed on its tier's free list.
func (b *regBank) promote(slot int32, to int) int32 {
	src := &b.tiers[slot>>tierShift]
	oi := slot & tierIdxMask
	o := int(oi) * src.k
	newSlot := b.allocAt(to)
	dst := &b.tiers[to]
	ni := newSlot & tierIdxMask
	no := int(ni) * dst.k
	copy(dst.vals[no:no+src.k], src.vals[o:o+src.k])
	if b.trackIDs {
		copy(dst.ids[no:no+src.k], src.ids[o:o+src.k])
	}
	if b.trackKMV {
		dst.kmv[ni] = src.kmv[oi]
		dst.empty[ni] = src.empty[oi] + uint32(dst.k-src.k)
	}
	src.free = append(src.free, oi)
	return newSlot
}

// reserve pre-grows each tier's backing arrays for slots[t] more slots,
// so a bulk load of a known vertex count pays one allocation per array
// instead of a doubling cascade.
func (b *regBank) reserve(slots [MaxTiers]int) {
	for t := range b.tiers {
		tr, n := &b.tiers[t], slots[t]
		tr.vals = slices.Grow(tr.vals, n*tr.k)
		if b.trackIDs {
			tr.ids = slices.Grow(tr.ids, n*tr.k)
		}
		if b.trackKMV {
			tr.kmv = slices.Grow(tr.kmv, n)
			tr.empty = slices.Grow(tr.empty, n)
		}
	}
}

// bankGrow extends buf by n elements with amortized doubling. New
// elements are zero (a freshly made backing array is zeroed, and the bank
// only ever appends, so reused capacity has never held data).
func bankGrow(buf []uint64, n int) []uint64 {
	l := len(buf)
	if cap(buf) >= l+n {
		return buf[: l+n : cap(buf)]
	}
	c := 2 * cap(buf)
	if c < l+n {
		c = l + n
	}
	nb := make([]uint64, l+n, c)
	copy(nb, buf)
	return nb
}

// regs returns slot's register-value span (length = the slot's tier k).
// The slice is capped so an append cannot silently bleed into the
// neighboring slot.
func (b *regBank) regs(slot int32) []uint64 {
	tr := &b.tiers[slot>>tierShift]
	o := int(slot&tierIdxMask) * tr.k
	return tr.vals[o : o+tr.k : o+tr.k]
}

// argmins returns slot's argmin-id span.
func (b *regBank) argmins(slot int32) []uint64 {
	tr := &b.tiers[slot>>tierShift]
	o := int(slot&tierIdxMask) * tr.k
	return tr.ids[o : o+tr.k : o+tr.k]
}

// kOf returns the register count of slot's tier.
func (b *regBank) kOf(slot int32) int { return b.tiers[slot>>tierShift].k }

// update folds neighbor w, whose hash values are hashes (at least as
// many as the slot's register count — ingest always hashes the largest
// tier's k), into slot's registers. Min is idempotent, so duplicate
// edges are harmless.
//
// On KMV banks the slot's cached sum is adjusted only for registers
// whose minimum actually drops: the old value's term leaves, the new
// one's enters. The sum is an integer, so this running total is exactly
// kmvSum of the registers after any sequence of updates, in any order —
// which keeps degrees bit-identical across every ingest path.
func (b *regBank) update(slot int32, w uint64, hashes []uint64) {
	// Reslicing to the iteration length lets the compiler drop the
	// per-register bounds checks in this innermost of all ingest loops.
	vals := b.regs(slot)
	ids := b.argmins(slot)[:len(vals)]
	if !b.trackKMV {
		for i, h := range hashes[:len(vals)] {
			if h < vals[i] {
				vals[i] = h
				ids[i] = w
			}
		}
		return
	}
	var add, sub uint64
	var filled uint32
	for i, h := range hashes[:len(vals)] {
		if h < vals[i] {
			if old := vals[i]; old == emptyRegister {
				filled++
			} else {
				sub += kmvTerm(old)
			}
			add += kmvTerm(h)
			vals[i] = h
			ids[i] = w
		}
	}
	if add != sub || filled != 0 {
		tr := &b.tiers[slot>>tierShift]
		i := slot & tierIdxMask
		tr.kmv[i] += add - sub // wraps transiently at most; the total is exact
		tr.empty[i] -= filled
	}
}

// resum rebuilds slot's cached KMV sum from its registers, for loaders
// that fill a span directly instead of folding neighbors into it.
func (b *regBank) resum(slot int32) {
	if !b.trackKMV {
		return
	}
	tr := &b.tiers[slot>>tierShift]
	i := slot & tierIdxMask
	sum, empty := kmvSum(b.regs(slot))
	tr.kmv[i], tr.empty[i] = sum, uint32(empty)
}

// degree returns slot's degree estimate under the bank's degree mode:
// the arrival count, or on KMV banks the distinct-neighbor estimate from
// the cached sum — O(1), and bit-identical to kmvDistinct(regs(slot),
// arrivals) because both go through kmvEstimate with the same integer
// sum.
func (b *regBank) degree(slot int32, arrivals int64) float64 {
	if !b.trackKMV {
		return float64(arrivals)
	}
	tr := &b.tiers[slot>>tierShift]
	i := slot & tierIdxMask
	return kmvEstimate(tr.kmv[i], int(tr.empty[i]), tr.k, arrivals)
}

// slots returns the number of live (allocated and not promoted-away)
// slots across all tiers.
func (b *regBank) slots() int {
	n := 0
	for i := range b.tiers {
		if tr := &b.tiers[i]; tr.k > 0 {
			n += len(tr.vals)/tr.k - len(tr.free)
		}
	}
	return n
}

// tierCounts returns the live slot count per tier.
func (b *regBank) tierCounts() []int {
	out := make([]int, len(b.tiers))
	for i := range b.tiers {
		if tr := &b.tiers[i]; tr.k > 0 {
			out[i] = len(tr.vals)/tr.k - len(tr.free)
		}
	}
	return out
}

// memoryBytes returns the exact payload size of the bank: what the
// value, argmin and KMV-cache arrays actually hold. Ids and the cache
// are counted only when tracked — their lengths are zero otherwise — so
// the store memory gauges derive from real storage instead of assuming
// 16 bytes per register.
func (b *regBank) memoryBytes() int {
	n := 0
	for i := range b.tiers {
		tr := &b.tiers[i]
		n += 8*len(tr.vals) + 8*len(tr.ids) + 8*len(tr.kmv) + 4*len(tr.empty) + 4*len(tr.free)
	}
	return n
}
