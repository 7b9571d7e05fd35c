package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"linkpred/internal/rng"
)

func edges(pairs ...uint64) []Edge {
	if len(pairs)%2 != 0 {
		panic("edges: odd argument count")
	}
	out := make([]Edge, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, Edge{U: pairs[i], V: pairs[i+1], T: int64(i / 2)})
	}
	return out
}

func TestCanonical(t *testing.T) {
	e := Edge{U: 5, V: 2, T: 9}
	c := e.Canonical()
	if c.U != 2 || c.V != 5 || c.T != 9 {
		t.Errorf("Canonical = %+v", c)
	}
	// Already canonical stays put.
	if got := c.Canonical(); got != c {
		t.Errorf("double Canonical changed edge: %+v", got)
	}
}

func TestCanonicalProperty(t *testing.T) {
	if err := quick.Check(func(u, v uint64, ts int64) bool {
		c := Edge{U: u, V: v, T: ts}.Canonical()
		return c.U <= c.V && c.T == ts &&
			((c.U == u && c.V == v) || (c.U == v && c.V == u))
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestSliceSource(t *testing.T) {
	es := edges(1, 2, 3, 4, 5, 6)
	src := Slice(es)
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("Collect = %v", got)
	}
	for i := range es {
		if got[i] != es[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, got[i], es[i])
		}
	}
	// Exhausted source keeps returning EOF.
	if _, err := src.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("post-EOF Next err = %v", err)
	}
}

func TestForEachStopsOnError(t *testing.T) {
	wantErr := errors.New("boom")
	calls := 0
	err := ForEach(Slice(edges(1, 2, 3, 4, 5, 6)), func(e Edge) error {
		calls++
		if calls == 2 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Errorf("err = %v, want boom", err)
	}
	if calls != 2 {
		t.Errorf("fn called %d times, want 2", calls)
	}
}

func TestDedup(t *testing.T) {
	in := []Edge{
		{U: 1, V: 2}, {U: 2, V: 1}, // duplicate reversed
		{U: 1, V: 2}, // duplicate exact
		{U: 3, V: 3}, // self-loop
		{U: 2, V: 3},
	}
	got, err := Collect(Dedup(Slice(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("Dedup yielded %d edges, want 2: %v", len(got), got)
	}
	if got[0].U != 1 || got[0].V != 2 || got[1].U != 2 || got[1].V != 3 {
		t.Errorf("Dedup = %v", got)
	}
}

func TestDedupPreservesFirstOrientation(t *testing.T) {
	in := []Edge{{U: 9, V: 4}}
	got, _ := Collect(Dedup(Slice(in)))
	if got[0].U != 9 || got[0].V != 4 {
		t.Errorf("Dedup reoriented edge: %+v", got[0])
	}
}

func TestLimit(t *testing.T) {
	got, err := Collect(Limit(Slice(edges(1, 2, 3, 4, 5, 6)), 2))
	if err != nil || len(got) != 2 {
		t.Fatalf("Limit = %v, err %v", got, err)
	}
	got, err = Collect(Limit(Slice(edges(1, 2)), 10))
	if err != nil || len(got) != 1 {
		t.Fatalf("Limit larger than stream = %v, err %v", got, err)
	}
	got, err = Collect(Limit(Slice(edges(1, 2)), 0))
	if err != nil || len(got) != 0 {
		t.Fatalf("Limit(0) = %v, err %v", got, err)
	}
}

func TestSplit(t *testing.T) {
	es := edges(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	train, test, err := Split(es, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(train) != 4 || len(test) != 1 {
		t.Errorf("split 0.8 of 5 = %d/%d, want 4/1", len(train), len(test))
	}
	if _, _, err := Split(es, 1.5); err == nil {
		t.Error("Split(1.5) should error")
	}
	if _, _, err := Split(es, -0.1); err == nil {
		t.Error("Split(-0.1) should error")
	}
	train, test, _ = Split(es, 0)
	if len(train) != 0 || len(test) != 5 {
		t.Errorf("split 0 = %d/%d", len(train), len(test))
	}
	train, test, _ = Split(es, 1)
	if len(train) != 5 || len(test) != 0 {
		t.Errorf("split 1 = %d/%d", len(train), len(test))
	}
}

func TestFuncSource(t *testing.T) {
	n := 0
	src := Func(func() (Edge, error) {
		if n >= 3 {
			return Edge{}, io.EOF
		}
		n++
		return Edge{U: uint64(n), V: uint64(n + 1)}, nil
	})
	got, err := Collect(src)
	if err != nil || len(got) != 3 {
		t.Fatalf("Func source = %v, err %v", got, err)
	}
}

func TestTextRoundTrip(t *testing.T) {
	es := edges(1, 2, 3, 4, 1000000, 7)
	var buf bytes.Buffer
	n, err := WriteText(&buf, Slice(es))
	if err != nil || n != 3 {
		t.Fatalf("WriteText n=%d err=%v", n, err)
	}
	got, err := Collect(NewTextReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(es) {
		t.Fatalf("round trip %d edges, want %d", len(got), len(es))
	}
	for i := range es {
		if got[i] != es[i] {
			t.Errorf("edge %d = %+v, want %+v", i, got[i], es[i])
		}
	}
}

func TestTextReaderCommentsAndBlank(t *testing.T) {
	in := "# comment\n% konect comment\n\n1 2\n  3 4 99  \n"
	got, err := Collect(NewTextReader(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d edges: %v", len(got), got)
	}
	if got[0] != (Edge{U: 1, V: 2, T: 0}) {
		t.Errorf("edge 0 = %+v", got[0])
	}
	if got[1] != (Edge{U: 3, V: 4, T: 99}) {
		t.Errorf("edge 1 = %+v", got[1])
	}
}

func TestTextReaderArrivalOrderTimestamps(t *testing.T) {
	in := "5 6\n7 8\n9 10\n"
	got, err := Collect(NewTextReader(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range got {
		if e.T != int64(i) {
			t.Errorf("edge %d has T=%d, want %d", i, e.T, i)
		}
	}
}

func TestTextReaderErrors(t *testing.T) {
	cases := []string{
		"1\n",                      // too few fields
		"1 2 3 4\n",                // too many fields
		"x 2\n",                    // bad u
		"1 y\n",                    // bad v
		"1 2 zebra\n",              // bad t
		"1 -2\n",                   // negative vertex
		"99999999999999999999 1\n", // overflow
	}
	for _, in := range cases {
		_, err := Collect(NewTextReader(strings.NewReader(in)))
		if err == nil {
			t.Errorf("input %q: expected parse error", in)
		}
	}
}

func TestTextReaderErrorIdentifiesLine(t *testing.T) {
	in := "1 2\n3 4\nbogus line here\n"
	_, err := Collect(NewTextReader(strings.NewReader(in)))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("err = %v, want mention of line 3", err)
	}
}

// TestTextReaderReset: a reader reset onto a body reads it exactly as a
// fresh reader does (edges, arrival-order timestamps from 0, error text
// with line numbers from 1), and fields split where strings.Fields
// splits them, Unicode spaces included.
func TestTextReaderReset(t *testing.T) {
	cases := []struct {
		body string
		want []Edge
		err  string
	}{
		{"1 2\n3 4 9\n", []Edge{{1, 2, 0}, {3, 4, 9}}, ""},
		{"# c\n\n5\t6\v7\r\n8\u00a09\n", []Edge{{5, 6, 7}, {8, 9, 1}}, ""}, // tab, vertical tab, no-break space
		{"\u20281 2\u2028\n", []Edge{{1, 2, 0}}, ""},                       // line separators
		{"1 2\n3 4\nbogus line here\n", []Edge{{1, 2, 0}, {3, 4, 1}}, `stream: line 3: bad source vertex: strconv.ParseUint: parsing "bogus": invalid syntax`},
		{"1 2 3 4\n", nil, "stream: line 1: want 2 or 3 fields, got 4"},
		{"1 x\n", nil, `stream: line 1: bad target vertex: strconv.ParseUint: parsing "x": invalid syntax`},
		{strings.Repeat("7", 1<<20+10) + " 1\n", nil, "stream: read: bufio.Scanner: token too long"},
	}
	reused := NewTextReader(strings.NewReader("10 11\n12 13\n"))
	if _, err := reused.Next(); err != nil { // left mid-stream
		t.Fatal(err)
	}
	for i, tc := range cases {
		reused.Reset(strings.NewReader(tc.body))
		for name, src := range map[string]*TextReader{"fresh": NewTextReader(strings.NewReader(tc.body)), "reset": reused} {
			got, err := Collect(src)
			if msg := fmt.Sprint(err); (err != nil || tc.err != "") && msg != tc.err {
				t.Errorf("case %d, %s reader: err %q, want %q", i, name, msg, tc.err)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("case %d, %s reader: edges %v, want %v", i, name, got, tc.want)
			}
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	es := []Edge{{U: 1, V: 2, T: -5}, {U: 1<<63 + 7, V: 0, T: 1 << 40}}
	var buf bytes.Buffer
	n, err := WriteBinary(&buf, Slice(es))
	if err != nil || n != 2 {
		t.Fatalf("WriteBinary n=%d err=%v", n, err)
	}
	got, err := Collect(NewBinaryReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != es[0] || got[1] != es[1] {
		t.Errorf("round trip = %v, want %v", got, es)
	}
}

func TestBinaryBadMagic(t *testing.T) {
	_, err := NewBinaryReader(strings.NewReader("NOPE....")).Next()
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("err = %v, want bad-magic error", err)
	}
}

func TestBinaryTruncated(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteBinary(&buf, Slice(edges(1, 2))); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	_, err := Collect(NewBinaryReader(bytes.NewReader(trunc)))
	if err == nil {
		t.Error("truncated stream should produce an error, not silent EOF")
	}
}

func TestBinaryEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteBinary(&buf, Slice(nil)); err != nil {
		t.Fatal(err)
	}
	got, err := Collect(NewBinaryReader(&buf))
	if err != nil || len(got) != 0 {
		t.Errorf("empty binary stream = %v, err %v", got, err)
	}
}

func TestRoundTripPropertyTextAndBinary(t *testing.T) {
	x := rng.NewXoshiro256(8)
	if err := quick.Check(func(n uint8) bool {
		es := make([]Edge, int(n)%30)
		for i := range es {
			es[i] = Edge{U: x.Uint64() >> 1, V: x.Uint64() >> 1, T: int64(i)}
		}
		var tb, bb bytes.Buffer
		if _, err := WriteText(&tb, Slice(es)); err != nil {
			return false
		}
		if _, err := WriteBinary(&bb, Slice(es)); err != nil {
			return false
		}
		gt, err1 := Collect(NewTextReader(&tb))
		gb, err2 := Collect(NewBinaryReader(&bb))
		if err1 != nil || err2 != nil || len(gt) != len(es) || len(gb) != len(es) {
			return false
		}
		for i := range es {
			if gt[i] != es[i] || gb[i] != es[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReadBatch(t *testing.T) {
	es := edges(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	src := Slice(es)
	buf := make([]Edge, 4)

	n, err := ReadBatch(src, buf)
	if err != nil || n != 4 {
		t.Fatalf("first batch: n=%d err=%v, want 4 <nil>", n, err)
	}
	for i := 0; i < 4; i++ {
		if buf[i] != es[i] {
			t.Fatalf("buf[%d] = %v, want %v", i, buf[i], es[i])
		}
	}

	// Final short batch arrives with err == nil; EOF only when empty.
	n, err = ReadBatch(src, buf)
	if err != nil || n != 1 || buf[0] != es[4] {
		t.Fatalf("final batch: n=%d err=%v buf[0]=%v", n, err, buf[0])
	}
	n, err = ReadBatch(src, buf)
	if n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("exhausted: n=%d err=%v, want 0 io.EOF", n, err)
	}
}

func TestReadBatchPropagatesError(t *testing.T) {
	fail := errors.New("boom")
	i := 0
	src := Func(func() (Edge, error) {
		if i >= 2 {
			return Edge{}, fail
		}
		i++
		return Edge{U: uint64(i), V: uint64(i) + 1}, nil
	})
	buf := make([]Edge, 8)
	n, err := ReadBatch(src, buf)
	if n != 2 || !errors.Is(err, fail) {
		t.Fatalf("n=%d err=%v, want 2 boom", n, err)
	}
}

func TestForEachBatch(t *testing.T) {
	es := edges(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	var got []Edge
	var sizes []int
	err := ForEachBatch(Slice(es), 3, func(batch []Edge) error {
		got = append(got, batch...)
		sizes = append(sizes, len(batch))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 2 || sizes[0] != 3 || sizes[1] != 2 {
		t.Fatalf("batch sizes = %v, want [3 2]", sizes)
	}
	for i := range es {
		if got[i] != es[i] {
			t.Fatalf("edge %d = %v, want %v", i, got[i], es[i])
		}
	}

	if err := ForEachBatch(Slice(es), 0, func([]Edge) error { return nil }); err == nil {
		t.Error("size 0 should error")
	}
	if err := ForEachBatch(Slice(nil), 4, func([]Edge) error {
		t.Error("fn called on empty stream")
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	fail := errors.New("stop")
	err = ForEachBatch(Slice(es), 2, func(batch []Edge) error { return fail })
	if !errors.Is(err, fail) {
		t.Fatalf("fn error not propagated: %v", err)
	}
}
