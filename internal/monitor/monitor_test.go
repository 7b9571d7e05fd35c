package monitor

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"linkpred/internal/gen"
	"linkpred/internal/graph"
	"linkpred/internal/rng"
	"linkpred/internal/stream"
)

func TestSpaceSavingValidation(t *testing.T) {
	if _, err := NewSpaceSaving(0); err == nil {
		t.Error("capacity=0 should error")
	}
	if _, err := NewSpaceSaving(1<<28 + 1); err == nil {
		t.Error("capacity=2^28+1 should error")
	}
}

func TestSpaceSavingFindsHeavyHitters(t *testing.T) {
	ss, _ := NewSpaceSaving(20)
	x := rng.NewXoshiro256(3)
	// Keys 0..4 are heavy (10k each); 5..1004 are light (~10 each).
	truth := map[uint64]uint64{}
	var events []uint64
	for k := uint64(0); k < 5; k++ {
		for i := 0; i < 10000; i++ {
			events = append(events, k)
		}
	}
	for k := uint64(5); k < 1005; k++ {
		for i := 0; i < 10; i++ {
			events = append(events, k)
		}
	}
	x.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
	for _, k := range events {
		ss.Add(k)
		truth[k]++
	}
	top := ss.Top(5)
	if len(top) != 5 {
		t.Fatalf("Top(5) returned %d entries", len(top))
	}
	for _, e := range top {
		if e.Key >= 5 {
			t.Errorf("light key %d in top-5", e.Key)
		}
		// Count within error bound of truth.
		if e.Count < truth[e.Key] || e.Count-e.Err > truth[e.Key] {
			t.Errorf("key %d: est %d (err %d) vs truth %d violates guarantee",
				e.Key, e.Count, e.Err, truth[e.Key])
		}
	}
	if len(ss.entries) > 20 {
		t.Errorf("tracking %d keys, capacity 20", len(ss.entries))
	}
}

func TestSpaceSavingTopOrderDeterministic(t *testing.T) {
	mk := func() []Entry {
		ss, _ := NewSpaceSaving(8)
		x := rng.NewXoshiro256(5)
		for i := 0; i < 5000; i++ {
			ss.Add(x.Uint64() % 100)
		}
		return ss.Top(8)
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Top not deterministic")
		}
	}
}

// tracked returns key's entry and whether the summary holds it.
func tracked(s *SpaceSaving, key uint64) (Entry, bool) {
	_, i := s.find(key)
	if i < 0 {
		return Entry{}, false
	}
	return s.entries[i], true
}

// indexed counts the keys in the summary's index table.
func indexed(s *SpaceSaving) int {
	n := 0
	for _, p := range s.slots {
		if p != 0 {
			n++
		}
	}
	return n
}

// TestSpaceSavingExact: while the summary has room, every count is
// exact with zero error.
func TestSpaceSavingExact(t *testing.T) {
	s, err := NewSpaceSaving(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j <= i; j++ {
			s.Add(uint64(i))
		}
	}
	for i := 0; i < 8; i++ {
		e, ok := tracked(s, uint64(i))
		if !ok || e.Count != uint64(i+1) || e.Err != 0 {
			t.Fatalf("key %d: entry %+v tracked=%v, want exact count %d", i, e, ok, i+1)
		}
	}
	top := s.Top(3)
	if len(top) != 3 || top[0].Key != 7 || top[1].Key != 6 || top[2].Key != 5 {
		t.Fatalf("Top(3) = %+v, want keys 7, 6, 5", top)
	}
}

// TestSpaceSavingEviction: replacement inherits the evicted minimum's
// count as its error bound and evicts the smallest key among ties.
func TestSpaceSavingEviction(t *testing.T) {
	s, _ := NewSpaceSaving(2)
	s.Add(10)
	s.Add(20)
	// Both at count 1 → tie; 30 must evict the smaller key, 10.
	s.Add(30)
	if _, ok := tracked(s, 10); ok {
		t.Fatal("expected key 10 evicted (smallest key among minimum-count ties)")
	}
	if e, ok := tracked(s, 30); !ok || e.Count != 2 || e.Err != 1 {
		t.Fatalf("key 30: entry %+v tracked=%v, want count 2 err 1", e, ok)
	}
	if e, ok := tracked(s, 20); !ok || e.Count != 1 {
		t.Fatal("key 20 should survive the eviction")
	}
}

// TestSpaceSavingDeterminism: equal observation sequences produce
// identical summaries, whatever map iteration order does internally.
func TestSpaceSavingDeterminism(t *testing.T) {
	build := func() []Entry {
		s, _ := NewSpaceSaving(16)
		r := rng.NewXoshiro256(99)
		for i := 0; i < 20000; i++ {
			s.Add(r.Uint64() % 400)
		}
		return s.Top(16)
	}
	a, b := build(), build()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("summary sizes %d, %d, want 16", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d diverges: %+v != %+v", i, a[i], b[i])
		}
	}
}

// TestSpaceSavingGuarantees: on a skewed stream, (1) counts never
// underestimate, (2) count − err never overestimates, (3) every key
// with true frequency > N/capacity is present, (4) per-entry error is
// bounded by N/capacity.
func TestSpaceSavingGuarantees(t *testing.T) {
	const capacity = 64
	s, _ := NewSpaceSaving(capacity)
	truth := make(map[uint64]uint64)
	r := rng.NewXoshiro256(7)
	var n uint64
	for i := 0; i < 100000; i++ {
		// Zipf-ish skew: low keys vastly more frequent.
		key := r.Uint64() % 1000
		key = key * key / 1000
		truth[key]++
		s.Add(key)
		n++
	}
	threshold := n / capacity
	for key, tc := range truth {
		e, ok := tracked(s, key)
		if !ok {
			if tc > threshold {
				t.Fatalf("key %d with true count %d > N/cap %d missing from summary", key, tc, threshold)
			}
			continue
		}
		if e.Count < tc {
			t.Fatalf("key %d: estimate %d underestimates true count %d", key, e.Count, tc)
		}
		if e.Count-e.Err > tc {
			t.Fatalf("key %d: lower bound %d exceeds true count %d", key, e.Count-e.Err, tc)
		}
		if e.Err > threshold {
			t.Fatalf("key %d: error %d exceeds N/cap %d", key, e.Err, threshold)
		}
	}
	if len(s.entries) > capacity {
		t.Fatalf("summary holds %d entries, capacity %d", len(s.entries), capacity)
	}
}

// TestSpaceSavingBoundedMemory: memory is a function of capacity, not
// of the number of distinct keys streamed through.
func TestSpaceSavingBoundedMemory(t *testing.T) {
	const capacity = 32
	s, _ := NewSpaceSaving(capacity)
	before := s.MemoryBytes()
	for i := 0; i < 100000; i++ {
		s.Add(uint64(i))
	}
	if got := s.MemoryBytes(); got != before {
		t.Fatalf("memory grew from %d to %d over a high-churn stream", before, got)
	}
	if len(s.entries) != capacity || cap(s.entries) != capacity || indexed(s) != capacity {
		t.Fatalf("entries len %d cap %d, index %d; want %d each",
			len(s.entries), cap(s.entries), indexed(s), capacity)
	}
}

// refSpaceSaving is the linear-scan Space-Saving the heap replaced: a
// map index, and a scan of every entry for the minimum (count, then
// key) on each untracked arrival once full. The heap must evict exactly
// what it evicts.
type refSpaceSaving struct {
	capacity int
	entries  []Entry
	index    map[uint64]int
}

func newRefSpaceSaving(capacity int) *refSpaceSaving {
	return &refSpaceSaving{capacity: capacity, index: make(map[uint64]int)}
}

func (s *refSpaceSaving) Add(key uint64) {
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

// top is SpaceSaving.Top(len(entries)) over the reference's entries.
func (s *refSpaceSaving) top() []Entry {
	out := append([]Entry(nil), s.entries...)
	slices.SortFunc(out, func(a, b Entry) int {
		if c := cmp.Compare(b.Count, a.Count); c != 0 {
			return c
		}
		return cmp.Compare(a.Key, b.Key)
	})
	return out
}

// matchReference adds keys to a SpaceSaving and to the reference,
// failing at the first add after which Top(capacity) differs.
func matchReference(t *testing.T, capacity int, keys []uint64) {
	t.Helper()
	s, err := NewSpaceSaving(capacity)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefSpaceSaving(capacity)
	for i, k := range keys {
		s.Add(k)
		ref.Add(k)
		got, want := s.Top(capacity), ref.top()
		if len(got) != len(want) {
			t.Fatalf("capacity %d, add %d (key %d): %d entries, reference %d", capacity, i, k, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("capacity %d, add %d (key %d): entry %d = %+v, reference %+v", capacity, i, k, j, got[j], want[j])
			}
		}
	}
}

// collidingKeys returns n keys whose homes are four neighbouring slots,
// across the wrap, of the index of a summary of the given capacity, so
// their probe runs overlap and removals shift keys back across them.
func collidingKeys(capacity, n int) []uint64 {
	s, _ := NewSpaceSaving(capacity)
	mask := uint64(len(s.slots) - 1)
	var keys []uint64
	for k := uint64(0); len(keys) < n; k++ {
		if home := rng.Mix64(k) & mask; home < 3 || home == mask {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestSpaceSavingMatchesReference: after every add, Top(capacity)
// equals the linear-scan reference's, entry for entry, on uniform,
// tie-heavy, skewed and index-colliding streams.
func TestSpaceSavingMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 64, 1024} {
		adds := 3000 // past the fill by 2000 adds at capacity 1024
		r := rng.NewXoshiro256(uint64(capacity))
		streams := map[string]func() uint64{
			// Twice as many keys as slots: constant eviction, counts
			// climb in lockstep, so most comparisons are ties.
			"ties": func() uint64 { return r.Uint64() % uint64(2*capacity+1) },
			// A few hot keys over a long cold tail.
			"skewed": func() uint64 {
				k := r.Uint64() % uint64(8*capacity+8)
				return k * k / uint64(8*capacity+8)
			},
			// Every key new: each add past the fill evicts the root.
			"churn": func() uint64 { return r.Uint64() },
		}
		colliding := collidingKeys(capacity, 2*capacity+2)
		streams["colliding"] = func() uint64 { return colliding[r.Uint64()%uint64(len(colliding))] }
		for name, next := range streams {
			keys := make([]uint64, adds)
			for i := range keys {
				keys[i] = next()
			}
			t.Run(fmt.Sprintf("c%d/%s", capacity, name), func(t *testing.T) {
				matchReference(t, capacity, keys)
			})
		}
	}
}

// FuzzSpaceSaving compares the summary with the linear-scan reference
// after every add of a byte-derived key stream.
func FuzzSpaceSaving(f *testing.F) {
	f.Add(uint8(0), []byte{1, 2, 1, 3, 2, 4})
	f.Add(uint8(2), []byte{7, 7, 7, 1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1})
	f.Add(uint8(63), []byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox"))
	f.Fuzz(func(t *testing.T, c uint8, data []byte) {
		keys := make([]uint64, len(data))
		for i, b := range data {
			keys[i] = uint64(b)
		}
		matchReference(t, 1+int(c)%80, keys)
	})
}

func TestKMVValidationAndExactness(t *testing.T) {
	if _, err := NewKMV(1, 1); err == nil {
		t.Error("k=1 should error")
	}
	v, _ := NewKMV(64, 1)
	// Below k distinct: exact, duplicates free.
	for i := uint64(0); i < 40; i++ {
		v.Add(i)
		v.Add(i)
	}
	if got := v.Estimate(); got != 40 {
		t.Errorf("under-k estimate = %v, want exactly 40", got)
	}
}

// TestKMVFullStaysAtK: once full, an insertion shifts the largest
// value out in place, so the slice keeps the k words MemoryBytes
// reports instead of growing past them.
func TestKMVFullStaysAtK(t *testing.T) {
	const k = 1024
	v, _ := NewKMV(k, 5)
	for i := uint64(0); i < 50*k; i++ {
		v.Add(i)
	}
	if len(v.vals) != k || cap(v.vals) != k {
		t.Fatalf("len %d cap %d, want %d", len(v.vals), cap(v.vals), k)
	}
	if v.MemoryBytes() != 8*cap(v.vals) {
		t.Fatalf("MemoryBytes %d, backing array %d bytes", v.MemoryBytes(), 8*cap(v.vals))
	}
	for i := 1; i < k; i++ {
		if v.vals[i-1] >= v.vals[i] {
			t.Fatalf("vals not strictly ascending at %d", i)
		}
	}
}

func TestKMVAccuracy(t *testing.T) {
	v, _ := NewKMV(512, 3)
	const distinct = 100000
	for i := uint64(0); i < distinct; i++ {
		v.Add(i)
		if i%3 == 0 {
			v.Add(i) // duplicates
		}
	}
	got := v.Estimate()
	if math.Abs(got-distinct)/distinct > 0.12 {
		t.Errorf("KMV estimate = %.0f, want within 12%% of %d", got, distinct)
	}
}

func TestMonitorDefaults(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.MemoryBytes() <= 0 {
		t.Error("memory accounting broken")
	}
}

func TestMonitorProfileAccuracy(t *testing.T) {
	src, err := gen.Open(gen.DatasetCoauthor, gen.ScaleSmall, 42)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := stream.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New() // exact truth
	m, _ := New(Config{Seed: 7})
	for _, e := range raw {
		g.AddEdge(e.U, e.V)
		m.ProcessEdge(e)
	}
	r := m.Report(10)
	if r.Edges != int64(len(raw)) {
		t.Errorf("Edges = %d, want %d", r.Edges, len(raw))
	}
	if math.Abs(r.DistinctEdges-float64(g.NumEdges()))/float64(g.NumEdges()) > 0.10 {
		t.Errorf("DistinctEdges = %.0f, truth %d", r.DistinctEdges, g.NumEdges())
	}
	if math.Abs(r.DistinctVertices-float64(g.NumVertices()))/float64(g.NumVertices()) > 0.10 {
		t.Errorf("DistinctVertices = %.0f, truth %d", r.DistinctVertices, g.NumVertices())
	}
	trueDup := 1 - float64(g.NumEdges())/float64(len(raw))
	if math.Abs(r.DuplicateRate-trueDup) > 0.05 {
		t.Errorf("DuplicateRate = %.3f, truth %.3f", r.DuplicateRate, trueDup)
	}
	if len(r.TopVertices) != 10 {
		t.Fatalf("TopVertices has %d entries", len(r.TopVertices))
	}
	if r.String() == "" {
		t.Error("empty String()")
	}
}

func TestMonitorHeavyHittersOnHeavyTail(t *testing.T) {
	// Space-saving guarantees presence only for keys above N/capacity
	// arrivals, so test the hitters on a stream that actually has such
	// keys: the flickr stand-in (power-law, max degree in the hundreds).
	src, err := gen.Open(gen.DatasetFlickr, gen.ScaleSmall, 42)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := stream.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	m, _ := New(Config{Seed: 7})
	for _, e := range raw {
		g.AddEdge(e.U, e.V)
		m.ProcessEdge(e)
	}
	meanDeg := 2 * float64(g.NumEdges()) / float64(g.NumVertices())
	for _, e := range m.Report(5).TopVertices {
		if float64(g.Degree(e.Key)) < 5*meanDeg {
			t.Errorf("reported hitter %d has degree %d, mean is %.1f",
				e.Key, g.Degree(e.Key), meanDeg)
		}
	}
}

func TestMonitorSelfLoops(t *testing.T) {
	m, _ := New(Config{})
	m.ProcessEdge(stream.Edge{U: 1, V: 1})
	m.ProcessEdge(stream.Edge{U: 1, V: 2})
	r := m.Report(5)
	if r.SelfLoops != 1 || r.Edges != 1 {
		t.Errorf("self-loop accounting: %+v", r)
	}
}

func TestMonitorEmptyReport(t *testing.T) {
	m, _ := New(Config{})
	r := m.Report(5)
	if r.Edges != 0 || r.DuplicateRate != 0 || r.MeanDegree != 0 {
		t.Errorf("empty report = %+v", r)
	}
}

// TestReportPinned pins Report(64) on two seeded streams to the values
// the map-backed Space-Saving and the Count–Min-carrying monitor gave:
// every top-list entry and the distinct counts, bit for bit. Both
// streams evict constantly at 64 slots, so the list depends on the
// minimum-count, smaller-key eviction order.
func TestReportPinned(t *testing.T) {
	for _, tc := range []struct {
		name                                           string
		open                                           func() (stream.Source, error)
		edges                                          int64
		distinctEdges, distinctVertices, duplicateRate float64
		top                                            []Entry
	}{
		{
			name:  "flickr",
			open:  func() (stream.Source, error) { return gen.Open(gen.DatasetFlickr, gen.ScaleSmall, 42) },
			edges: 20000, distinctEdges: 15574.627886096741, distinctVertices: 2012.2535205926308, duplicateRate: 0.22126860569516293,
			top: []Entry{
				{0, 2396, 0}, {1, 1374, 0}, {2, 1018, 1}, {3, 753, 3},
				{4, 669, 2}, {5, 579, 544}, {10, 574, 569}, {14, 574, 570},
				{6, 573, 572}, {8, 573, 568}, {11, 573, 571}, {15, 573, 572},
				{19, 573, 571}, {20, 573, 572}, {29, 573, 571}, {42, 573, 572},
				{44, 573, 572}, {45, 573, 572}, {53, 573, 570}, {60, 573, 572},
				{80, 573, 572}, {99, 573, 569}, {130, 573, 572}, {157, 573, 572},
				{173, 573, 572}, {176, 573, 572}, {248, 573, 572}, {307, 573, 572},
				{335, 573, 572}, {342, 573, 572}, {384, 573, 572}, {577, 573, 572},
				{703, 573, 572}, {829, 573, 572}, {1011, 573, 572}, {1504, 573, 572},
				{1679, 573, 572}, {1748, 573, 572}, {1984, 573, 572}, {430, 572, 571},
				{527, 572, 571}, {545, 572, 571}, {578, 572, 571}, {619, 572, 571},
				{672, 572, 571}, {735, 572, 571}, {767, 572, 571}, {900, 572, 571},
				{968, 572, 571}, {1076, 572, 571}, {1100, 572, 571}, {1148, 572, 571},
				{1179, 572, 571}, {1201, 572, 571}, {1236, 572, 571}, {1323, 572, 571},
				{1332, 572, 571}, {1355, 572, 571}, {1412, 572, 571}, {1479, 572, 571},
				{1765, 572, 571}, {1909, 572, 571}, {1947, 572, 571}, {1982, 572, 571},
			},
		},
		{
			name:  "rmat",
			open:  func() (stream.Source, error) { return gen.RMAT(12, 40000, .57, .19, .19, .05, 7) },
			edges: 40000, distinctEdges: 32200.974658418992, distinctVertices: 3023.0359532748075, duplicateRate: 0.19497563353952518,
			top: []Entry{
				{0, 2944, 2}, {4, 1229, 1211}, {16, 1225, 1216}, {256, 1225, 1215},
				{260, 1225, 1220}, {1, 1224, 1183}, {64, 1224, 1222}, {2056, 1224, 1220},
				{3136, 1224, 1222}, {2, 1223, 1222}, {8, 1223, 1222}, {24, 1223, 1222},
				{48, 1223, 1222}, {72, 1223, 1222}, {74, 1223, 1222}, {82, 1223, 1222},
				{116, 1223, 1222}, {136, 1223, 1222}, {160, 1223, 1222}, {257, 1223, 1222},
				{261, 1223, 1222}, {264, 1223, 1222}, {268, 1223, 1222}, {300, 1223, 1222},
				{364, 1223, 1222}, {489, 1223, 1222}, {528, 1223, 1222}, {608, 1223, 1222},
				{640, 1223, 1222}, {704, 1223, 1222}, {1016, 1223, 1222}, {1024, 1223, 1220},
				{1026, 1223, 1222}, {1032, 1223, 1222}, {1033, 1223, 1222}, {1040, 1223, 1222},
				{1056, 1223, 1222}, {1090, 1223, 1222}, {1217, 1223, 1222}, {1312, 1223, 1222},
				{1538, 1223, 1222}, {2065, 1223, 1222}, {2084, 1223, 1222}, {2088, 1223, 1222},
				{2180, 1223, 1222}, {2194, 1223, 1222}, {2202, 1223, 1222}, {2257, 1223, 1222},
				{2432, 1223, 1222}, {2571, 1223, 1222}, {2625, 1223, 1222}, {2626, 1223, 1222},
				{2628, 1223, 1222}, {2657, 1223, 1222}, {2690, 1223, 1222}, {2440, 1222, 1221},
				{2688, 1222, 1221}, {2734, 1222, 1221}, {3080, 1222, 1221}, {3084, 1222, 1221},
				{3088, 1222, 1221}, {3154, 1222, 1220}, {3206, 1222, 1221}, {3399, 1222, 1221},
			},
		},
	} {
		src, err := tc.open()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := stream.Collect(src)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range raw {
			m.ProcessEdge(e)
		}
		r := m.Report(64)
		if r.Edges != tc.edges || r.DistinctEdges != tc.distinctEdges ||
			r.DistinctVertices != tc.distinctVertices || r.DuplicateRate != tc.duplicateRate {
			t.Errorf("%s: report %+v, want edges %d distinct edges %v vertices %v dup %v", tc.name, r,
				tc.edges, tc.distinctEdges, tc.distinctVertices, tc.duplicateRate)
		}
		if len(r.TopVertices) != len(tc.top) {
			t.Fatalf("%s: %d top vertices, want %d", tc.name, len(r.TopVertices), len(tc.top))
		}
		for i, e := range r.TopVertices {
			if e != tc.top[i] {
				t.Errorf("%s: top vertex %d = %+v, want %+v", tc.name, i, e, tc.top[i])
			}
		}
	}
}

// BenchmarkProcessEdge folds a seeded scale-16 R-MAT stream, the shape
// bench/e2e ingests, into one monitor: ns/op is the cost of one edge.
func BenchmarkProcessEdge(b *testing.B) {
	src, err := gen.RMAT(16, 1<<19, .57, .19, .19, .05, 1)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := stream.Collect(src)
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ProcessEdge(raw[i%len(raw)])
	}
}
