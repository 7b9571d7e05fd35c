package monitor

import (
	"fmt"
	"math"
	"sort"

	"linkpred/internal/hashing"
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
// identical summaries. Finding that entry scans the array: an untracked
// arrival costs O(capacity), any other O(1).
//
// Not safe for concurrent use.
type SpaceSaving struct {
	capacity int
	entries  []Entry
	index    map[uint64]int // key → position in entries
}

// Entry is one tracked key with its estimated count and error bound
// (true count ∈ [Count−Err, Count]).
type Entry struct {
	Key   uint64
	Count uint64
	Err   uint64
}

// NewSpaceSaving returns a summary tracking at most capacity keys. It
// returns an error if capacity < 1.
func NewSpaceSaving(capacity int) (*SpaceSaving, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("monitor: SpaceSaving needs capacity >= 1, got %d", capacity)
	}
	return &SpaceSaving{
		capacity: capacity,
		entries:  make([]Entry, 0, capacity),
		index:    make(map[uint64]int, capacity),
	}, nil
}

// Add records one occurrence of key.
func (s *SpaceSaving) Add(key uint64) {
	if i, ok := s.index[key]; ok {
		s.entries[i].Count++
		return
	}
	if len(s.entries) < s.capacity {
		s.index[key] = len(s.entries)
		s.entries = append(s.entries, Entry{Key: key, Count: 1})
		return
	}
	minIdx := 0
	for i := 1; i < len(s.entries); i++ {
		e, m := &s.entries[i], &s.entries[minIdx]
		if e.Count < m.Count || (e.Count == m.Count && e.Key < m.Key) {
			minIdx = i
		}
	}
	old := s.entries[minIdx]
	delete(s.index, old.Key)
	s.index[key] = minIdx
	s.entries[minIdx] = Entry{Key: key, Count: old.Count + 1, Err: old.Count}
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
// plus a rough 48 bytes per key of index.
func (s *SpaceSaving) MemoryBytes() int { return (24 + 48) * s.capacity }

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
