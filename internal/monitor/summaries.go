package monitor

import (
	"fmt"
	"math"
	"sort"

	"linkpred/internal/hashing"
	"linkpred/internal/rng"
)

// SpaceSaving is Metwally, Agrawal and El Abbadi's space-saving
// heavy-hitter summary: it tracks the approximately most frequent keys
// of a stream in O(capacity) memory, whatever the stream length or key
// universe.
//
// Guarantees (N = total observations, c = capacity):
//
//   - every key whose true count exceeds N/c is tracked;
//   - Count never underestimates: true count ∈ [Count−Err, Count],
//     where Err is the count the entry inherited when it overwrote the
//     previous minimum (0 for keys tracked since their first arrival);
//   - Err ≤ N/c for every entry.
//
// When the summary is full, a new key overwrites the minimum-count
// entry, ties broken toward the smaller key, so equal streams produce
// identical summaries. The entries sit in a binary min-heap on (Count,
// Key), whose root is that entry, and a fixed open-addressing table
// finds a key's entry: a hit increments its entry and sifts it down, an
// untracked arrival overwrites the root and sifts it down. Every Add
// costs O(log capacity) and allocates nothing.
//
// Not safe for concurrent use.
type SpaceSaving struct {
	entries []Entry // never move; cap is the capacity
	heap    []int32 // positions in entries, a min-heap on (Count, Key)
	pos     []int32 // pos[e] is entry e's index in heap
	// slots is a linear-probing table over the tracked keys, at most a
	// quarter full: entry position + 1, or 0 for an empty slot.
	slots []int32
}

// Entry is one tracked key with its estimated count and error bound
// (true count ∈ [Count−Err, Count]).
type Entry struct {
	Key   uint64
	Count uint64
	Err   uint64
}

// NewSpaceSaving returns a summary tracking at most capacity keys. It
// returns an error if capacity < 1 or capacity > 2^28.
func NewSpaceSaving(capacity int) (*SpaceSaving, error) {
	// The bound keeps the index's 4·capacity slots within a 32-bit int.
	if capacity < 1 || capacity > 1<<28 {
		return nil, fmt.Errorf("monitor: SpaceSaving needs capacity in [1, 2^28], got %d", capacity)
	}
	size := 2
	for size < 4*capacity {
		size <<= 1
	}
	return &SpaceSaving{
		entries: make([]Entry, 0, capacity),
		heap:    make([]int32, 0, capacity),
		pos:     make([]int32, capacity),
		slots:   make([]int32, size),
	}, nil
}

// Add records one occurrence of key.
func (s *SpaceSaving) Add(key uint64) {
	slot, e := s.find(key)
	if e >= 0 {
		s.entries[e].Count++
		s.down(int(s.pos[e]))
		return
	}
	if n := len(s.entries); n < cap(s.entries) {
		e = int32(n)
		s.entries = append(s.entries, Entry{Key: key, Count: 1})
		s.slots[slot] = e + 1
		s.pos[e] = e
		s.heap = append(s.heap, e)
		s.up(n)
		return
	}
	e = s.heap[0]
	old := s.entries[e]
	oldSlot, _ := s.find(old.Key)
	s.unindex(oldSlot)
	slot, _ = s.find(key) // the removal may have emptied a slot on key's probe run
	s.slots[slot] = e + 1
	s.entries[e] = Entry{Key: key, Count: old.Count + 1, Err: old.Count}
	s.down(0)
}

// find returns key's slot and entry position, or the empty slot that
// ends key's probe run and -1.
func (s *SpaceSaving) find(key uint64) (slot uint64, e int32) {
	mask := uint64(len(s.slots) - 1)
	for i := rng.Mix64(key) & mask; ; i = (i + 1) & mask {
		p := s.slots[i]
		if p == 0 {
			return i, -1
		}
		if s.entries[p-1].Key == key {
			return i, p - 1
		}
	}
}

// unindex empties slot i by backward-shift deletion: each later key of
// the probe run whose home lies outside (hole, its slot], cyclically,
// moves into the hole, so every key stays reachable from its home
// without tombstones.
func (s *SpaceSaving) unindex(i uint64) {
	mask := uint64(len(s.slots) - 1)
	for j := (i + 1) & mask; s.slots[j] != 0; j = (j + 1) & mask {
		home := rng.Mix64(s.entries[s.slots[j]-1].Key) & mask
		if (j-home)&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = 0
}

// less orders entries a and b by (Count, Key), the eviction order.
func (s *SpaceSaving) less(a, b int32) bool {
	x, y := &s.entries[a], &s.entries[b]
	return x.Count < y.Count || (x.Count == y.Count && x.Key < y.Key)
}

// up moves the entry at heap index i toward the root until its parent
// is smaller.
func (s *SpaceSaving) up(i int) {
	h, e := s.heap, s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(e, h[p]) {
			break
		}
		h[i] = h[p]
		s.pos[h[i]] = int32(i)
		i = p
	}
	h[i] = e
	s.pos[e] = int32(i)
}

// down restores the heap after the entry at index i grew. It moves the
// hole at i down to a leaf along the smaller children, then lets the
// entry climb back from there: the entry usually belongs near the
// leaves, so this costs about one comparison a level where the
// textbook sift costs two.
func (s *SpaceSaving) down(i int) {
	h, e := s.heap, s.heap[i]
	for c := 2*i + 1; c < len(h); c = 2*i + 1 {
		if c+1 < len(h) && s.less(h[c+1], h[c]) {
			c++
		}
		h[i] = h[c]
		s.pos[h[i]] = int32(i)
		i = c
	}
	h[i] = e
	s.up(i)
}

// Top returns the k highest-count entries, count-descending with ties
// toward smaller keys.
func (s *SpaceSaving) Top(k int) []Entry {
	out := append([]Entry(nil), s.entries...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// MemoryBytes returns the payload size of the summary: the entry array
// (24 bytes an entry), the heap and its position array, and the index
// table.
func (s *SpaceSaving) MemoryBytes() int {
	return 24*cap(s.entries) + 4*(cap(s.heap)+len(s.pos)+len(s.slots))
}

// KMV is a k-minimum-values distinct counter over 64-bit keys: it keeps
// the k smallest hash values seen; with m_k the k-th smallest mapped to
// (0, 1], the distinct count is estimated by (k−1)/m_k.
type KMV struct {
	k    int
	hash hashing.Mixed
	vals []uint64 // sorted ascending, at most k, distinct
}

// NewKMV returns a distinct counter keeping the k smallest hashes. It
// returns an error if k < 2 (the estimator needs k−1 ≥ 1).
func NewKMV(k int, seed uint64) (*KMV, error) {
	if k < 2 {
		return nil, fmt.Errorf("monitor: KMV needs k >= 2, got %d", k)
	}
	return &KMV{k: k, hash: hashing.NewMixed(seed), vals: make([]uint64, 0, k)}, nil
}

// Add observes one key (duplicates are free by construction).
func (v *KMV) Add(key uint64) {
	h := v.hash.Hash(key)
	n := len(v.vals)
	if n == v.k && h >= v.vals[n-1] {
		return
	}
	i := sort.Search(n, func(i int) bool { return v.vals[i] >= h })
	if i < n && v.vals[i] == h {
		return // already present
	}
	// When full, the shift drops the largest value, so the slice never
	// outgrows the k words it was made with.
	if n < v.k {
		v.vals = append(v.vals, 0)
	}
	copy(v.vals[i+1:], v.vals[i:])
	v.vals[i] = h
}

// Estimate returns the estimated number of distinct keys observed. While
// fewer than k distinct hashes have been seen the count is exact.
func (v *KMV) Estimate() float64 {
	if len(v.vals) < v.k {
		return float64(len(v.vals))
	}
	mk := hashing.Float01(v.vals[len(v.vals)-1])
	if mk <= 0 {
		return float64(v.k)
	}
	est := float64(v.k-1) / mk
	return math.Max(est, float64(v.k))
}

// MemoryBytes returns the payload size of the counter.
func (v *KMV) MemoryBytes() int { return 8 * v.k }
