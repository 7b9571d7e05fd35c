package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"
	"unsafe"

	linkpred "linkpred"
)

// POST /scorebatch without reflection. The handler reads the body once
// into a pooled buffer and parses it with scanScoreBatch, which takes
// only the shape json.Marshal writes; any other body, and any body whose
// read failed, goes to encoding/json, the reference decoder. The pairs
// are grouped by source with a sort of (source, index) values, and the
// response is appended in the bytes writeJSON would write.

// scoreBatchRequest is the POST /scorebatch body: one measure, many
// pairs. It is what encoding/json decodes a body scanScoreBatch declines
// into.
type scoreBatchRequest struct {
	Measure string `json:"measure"`
	Pairs   []struct {
		U uint64 `json:"u"`
		V uint64 `json:"v"`
	} `json:"pairs"`
}

// batchPair is one requested pair and its position in the request.
type batchPair struct {
	u, v uint64
	i    int
}

// scoreBatchScratch is one /scorebatch request's reusable memory.
type scoreBatchScratch struct {
	body   bytes.Buffer
	pairs  []batchPair
	tmp    []batchPair // sortBySource's second buffer
	cands  []uint64
	scores []float64
	out    []byte
}

var scoreBatchPool = sync.Pool{New: func() any { return new(scoreBatchScratch) }}

// release returns sc to the pool unless its buffers grew past maxPooled.
func (sc *scoreBatchScratch) release() {
	size := sc.body.Cap() + cap(sc.out) + (cap(sc.pairs)+cap(sc.tmp))*int(unsafe.Sizeof(batchPair{})) +
		8*cap(sc.cands) + 8*cap(sc.scores)
	if size <= maxPooled {
		scoreBatchPool.Put(sc)
	}
}

// replayReader yields the bytes of a body read earlier and then the
// error that read ended in (io.EOF when it ended cleanly), returned
// with the last bytes as a capped body returns its cap error.
type replayReader struct {
	b   []byte
	err error
}

func (r *replayReader) Read(p []byte) (int, error) {
	n := copy(p, r.b)
	r.b = r.b[n:]
	if len(r.b) > 0 {
		return n, nil
	}
	return n, r.err
}

func (s *Server) handleScoreBatch(w http.ResponseWriter, r *http.Request) {
	defer r.Body.Close()
	s.limitBody(w, r)
	sc := scoreBatchPool.Get().(*scoreBatchScratch)
	defer sc.release()
	sc.body.Reset()
	_, rerr := sc.body.ReadFrom(r.Body)
	raw, pairs, ok := scanScoreBatch(sc.body.Bytes(), sc.pairs)
	measure := string(raw)
	if !ok || rerr != nil {
		// The reference decoder sees the bytes read and then the read's
		// error, so it accepts and rejects what it would reading the body
		// itself, with the same status and message.
		if rerr == nil {
			rerr = io.EOF
		}
		replay := &cappedBody{ReadCloser: io.NopCloser(&replayReader{b: sc.body.Bytes(), err: rerr})}
		var req scoreBatchRequest
		if err := json.NewDecoder(replay).Decode(&req); err != nil {
			writeError(w, uploadStatus(err, replay), "bad scorebatch body: %v", err)
			return
		}
		measure, pairs = req.Measure, pairs[:0]
		for i, p := range req.Pairs {
			pairs = append(pairs, batchPair{u: p.U, v: p.V, i: i})
		}
	}
	sc.pairs = pairs
	if measure == "" {
		measure = "adamic-adar"
	}
	m, err := linkpred.ParseMeasure(measure)
	if err != nil {
		writeError(w, http.StatusBadRequest, "unknown measure %q", measure)
		return
	}
	start := time.Now()
	if err := sc.score(r.Context(), s.engine(), m); err != nil {
		if cancelStatus(err) != 0 {
			s.writeCancel(w, err, nil)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.metrics.measure(measure).observe(time.Since(start), http.StatusOK)
	out, ok := appendScoreBatchResponse(sc.out[:0], measure, sc.scores)
	sc.out = out
	if !ok {
		writeJSON(w, http.StatusOK, map[string]any{
			"measure": measure,
			"pairs":   len(sc.scores),
			"scores":  sc.scores,
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// As in writeJSON, a failed write cannot be reported: the status
	// line is already committed.
	_, _ = w.Write(out)
}

// score fills sc.scores with one score per pair, in request order. It
// sorts the pairs by (source, index), so each distinct source costs one
// batched ScoreBatch call (one source pin and one snapshot read per
// shard) and its candidates keep their request order.
func (sc *scoreBatchScratch) score(ctx context.Context, eng linkpred.Engine, m linkpred.Measure) error {
	sc.tmp = slices.Grow(sc.tmp[:0], len(sc.pairs))[:len(sc.pairs)]
	pairs := sortBySource(sc.pairs, sc.tmp)
	sc.scores = slices.Grow(sc.scores[:0], len(pairs))[:len(pairs)]
	cq, hasCtx := linkpred.CtxQuerierOf(eng)
	for lo := 0; lo < len(pairs); {
		u, hi := pairs[lo].u, lo+1
		for hi < len(pairs) && pairs[hi].u == u {
			hi++
		}
		group := pairs[lo:hi]
		sc.cands = sc.cands[:0]
		for _, p := range group {
			sc.cands = append(sc.cands, p.v)
		}
		var got []float64
		var err error
		if hasCtx {
			got, err = cq.ScoreBatchCtx(ctx, m, u, sc.cands)
		} else {
			got, err = eng.ScoreBatch(m, u, sc.cands)
		}
		if err != nil {
			return err
		}
		for j, p := range group {
			sc.scores[p.i] = got[j]
		}
		lo = hi
	}
	return nil
}

// sortBySource sorts pairs by (source, index) and returns the sorted
// slice, which is pairs or tmp (of pairs' length). Pairs arrive in index
// order, so a stable sort on the source alone suffices: an LSD radix
// sort over the bytes in which the sources differ, which for vertex ids
// below 2^16 is two counting passes, where a comparison sort of a
// 1024-pair body makes about ten thousand calls to its comparison
// function.
func sortBySource(pairs, tmp []batchPair) []batchPair {
	var diff uint64
	for _, p := range pairs {
		diff |= p.u ^ pairs[0].u
	}
	for shift := 0; diff>>shift != 0; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue
		}
		var starts [256]int
		for _, p := range pairs {
			starts[byte(p.u>>shift)]++
		}
		sum := 0
		for d, n := range starts {
			starts[d], sum = sum, sum+n
		}
		for _, p := range pairs {
			d := byte(p.u >> shift)
			tmp[starts[d]] = p
			starts[d]++
		}
		pairs, tmp = tmp, pairs
	}
	return pairs
}

// scanScoreBatch parses body when it has the shape json.Marshal writes
// for a scoreBatchRequest,
//
//	{"measure":"…","pairs":[{"u":N,"v":N},…]}
//
// with any JSON whitespace between tokens, and returns the measure's
// bytes (a subslice of body) and the pairs, appended to pairs[:0]. It
// declines (ok false) anything else: escapes, control or non-ASCII bytes
// in the measure, other key spellings or order, null, signs, fractions,
// exponents, leading zeros, values from 2^64, repeated or unknown keys
// and trailing bytes. encoding/json decodes every body it takes to the
// same measure and pairs (FuzzScoreBatchBody), and is left every body it
// declines.
func scanScoreBatch(body []byte, pairs []batchPair) (measure []byte, _ []batchPair, ok bool) {
	pairs = pairs[:0]
	s := bodyScanner{b: body}
	if !s.char('{') || !s.lit(`"measure"`) || !s.char(':') {
		return nil, pairs, false
	}
	if measure, ok = s.str(); !ok {
		return nil, pairs, false
	}
	if !s.char(',') || !s.lit(`"pairs"`) || !s.char(':') || !s.char('[') {
		return nil, pairs, false
	}
	if !s.char(']') {
		for {
			if !s.char('{') || !s.key('u') || !s.char(':') {
				return nil, pairs, false
			}
			u, ok := s.uint()
			if !ok || !s.char(',') || !s.key('v') || !s.char(':') {
				return nil, pairs, false
			}
			v, ok := s.uint()
			if !ok || !s.char('}') {
				return nil, pairs, false
			}
			pairs = append(pairs, batchPair{u: u, v: v, i: len(pairs)})
			if s.char(']') {
				break
			}
			if !s.char(',') {
				return nil, pairs, false
			}
		}
	}
	if !s.char('}') {
		return nil, pairs, false
	}
	s.space()
	return measure, pairs, s.p == len(s.b)
}

// bodyScanner is scanScoreBatch's cursor over the body.
type bodyScanner struct {
	b []byte
	p int
}

// space skips JSON whitespace.
func (s *bodyScanner) space() {
	for s.p < len(s.b) {
		switch s.b[s.p] {
		case ' ', '\t', '\n', '\r':
			s.p++
		default:
			return
		}
	}
}

// char skips whitespace and then c, reporting whether c was next.
func (s *bodyScanner) char(c byte) bool {
	s.space()
	if s.p < len(s.b) && s.b[s.p] == c {
		s.p++
		return true
	}
	return false
}

// key skips whitespace and then the one-letter key "c".
func (s *bodyScanner) key(c byte) bool {
	s.space()
	if len(s.b)-s.p >= 3 && s.b[s.p] == '"' && s.b[s.p+1] == c && s.b[s.p+2] == '"' {
		s.p += 3
		return true
	}
	return false
}

// lit skips whitespace and then tok, reporting whether tok was next.
func (s *bodyScanner) lit(tok string) bool {
	s.space()
	if !bytes.HasPrefix(s.b[s.p:], []byte(tok)) {
		return false
	}
	s.p += len(tok)
	return true
}

// str reads a string of printable ASCII without escapes and returns
// its contents.
func (s *bodyScanner) str() ([]byte, bool) {
	if !s.char('"') {
		return nil, false
	}
	start := s.p
	for ; s.p < len(s.b); s.p++ {
		switch c := s.b[s.p]; {
		case c == '"':
			s.p++
			return s.b[start : s.p-1], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// uint reads a JSON integer in [0, 2^64) without sign or leading zeros.
func (s *bodyScanner) uint() (uint64, bool) {
	s.space()
	b := s.b[s.p:]
	var n uint64
	i := 0
	// Nineteen digits cannot overflow; a twentieth must be checked, and a
	// twenty-first always overflows.
	for ; i < len(b) && i < 19 && b[i]-'0' < 10; i++ {
		n = n*10 + uint64(b[i]-'0')
	}
	if i < len(b) && b[i]-'0' < 10 {
		d := uint64(b[i] - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, false
		}
		n = n*10 + d
		i++
	}
	if i == 0 || i < len(b) && b[i]-'0' < 10 || i > 1 && b[0] == '0' {
		return 0, false
	}
	s.p += i
	return n, true
}

// appendScoreBatchResponse appends to b the bytes writeJSON writes for
// map[string]any{"measure": measure, "pairs": len(scores), "scores":
// scores}: keys in sorted order, encoding/json's float format and the
// encoder's trailing newline. It reports false, and the caller must use
// writeJSON, when the measure needs escaping or a score is NaN or
// infinite (encoding/json refuses those and writes nothing).
func appendScoreBatchResponse(b []byte, measure string, scores []float64) ([]byte, bool) {
	for i := 0; i < len(measure); i++ {
		if c := measure[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return b, false
		}
	}
	b = append(b, `{"measure":"`...)
	b = append(b, measure...)
	b = append(b, `","pairs":`...)
	b = strconv.AppendInt(b, int64(len(scores)), 10)
	b = append(b, `,"scores":[`...)
	for i, f := range scores {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, false
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONFloat(b, f)
	}
	return append(b, "]}\n"...), true
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest 'f' form, or 'e' below 1e-6 and from 1e21, with a
// single-digit negative exponent written without its leading zero.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7, as encoding/json does.
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
