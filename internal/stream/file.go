package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode"
)

// Text stream format: one edge per line, "u v" or "u v t", whitespace
// separated. Lines that are empty or start with '#' or '%' are skipped
// (the conventions of the SNAP and KONECT public graph datasets, so real
// edge lists drop in unmodified). When the timestamp column is absent the
// reader assigns arrival order.

// TextReader reads a graph stream from a text edge list.
type TextReader struct {
	sc   bufio.Scanner
	buf  []byte // the scanner's first line buffer, kept across Reset
	line int
	next int64 // fallback timestamp: arrival index
}

// NewTextReader returns a TextReader over r.
func NewTextReader(r io.Reader) *TextReader {
	t := &TextReader{buf: make([]byte, 64*1024)}
	t.Reset(r)
	return t
}

// Reset makes t read a new stream from r, from line 1 and arrival index
// 0, keeping its 64 KiB line buffer, so one reader can serve request
// after request.
func (t *TextReader) Reset(r io.Reader) {
	t.sc = *bufio.NewScanner(r) // a Scanner has no Reset; a fresh value in place allocates nothing
	t.sc.Buffer(t.buf, 1<<20)
	t.line, t.next = 0, 0
}

// Next implements Source. Malformed lines produce an error identifying
// the line number.
func (t *TextReader) Next() (Edge, error) {
	for t.sc.Scan() {
		t.line++
		line := bytes.TrimSpace(t.sc.Bytes())
		if len(line) == 0 || line[0] == '#' || line[0] == '%' {
			continue
		}
		// Split where strings.Fields would, without allocating.
		var fields [3][]byte
		n := 0
		for rest := line; len(rest) > 0; n++ {
			rest = bytes.TrimLeftFunc(rest, unicode.IsSpace)
			end := bytes.IndexFunc(rest, unicode.IsSpace)
			if end < 0 {
				end = len(rest)
			}
			if n < len(fields) {
				fields[n] = rest[:end]
			}
			rest = rest[end:]
		}
		if n != 2 && n != 3 {
			return Edge{}, fmt.Errorf("stream: line %d: want 2 or 3 fields, got %d", t.line, n)
		}
		// string(b) of a short field does not allocate: strconv copies
		// the text it keeps in an error.
		u, err := strconv.ParseUint(string(fields[0]), 10, 64)
		if err != nil {
			return Edge{}, fmt.Errorf("stream: line %d: bad source vertex: %w", t.line, err)
		}
		v, err := strconv.ParseUint(string(fields[1]), 10, 64)
		if err != nil {
			return Edge{}, fmt.Errorf("stream: line %d: bad target vertex: %w", t.line, err)
		}
		ts := t.next
		if n == 3 {
			ts, err = strconv.ParseInt(string(fields[2]), 10, 64)
			if err != nil {
				return Edge{}, fmt.Errorf("stream: line %d: bad timestamp: %w", t.line, err)
			}
		}
		t.next++
		return Edge{U: u, V: v, T: ts}, nil
	}
	if err := t.sc.Err(); err != nil {
		return Edge{}, fmt.Errorf("stream: read: %w", err)
	}
	return Edge{}, io.EOF
}

// WriteText writes edges from src to w in the text format ("u v t", one
// edge per line) and returns the number of edges written.
func WriteText(w io.Writer, src Source) (int, error) {
	bw := bufio.NewWriter(w)
	n := 0
	err := ForEach(src, func(e Edge) error {
		if _, err := fmt.Fprintf(bw, "%d %d %d\n", e.U, e.V, e.T); err != nil {
			return fmt.Errorf("stream: write edge %d: %w", n, err)
		}
		n++
		return nil
	})
	if err != nil {
		return n, err
	}
	if err := bw.Flush(); err != nil {
		return n, fmt.Errorf("stream: flush: %w", err)
	}
	return n, nil
}

// Binary stream format: the magic "LPS1" followed by little-endian
// records of three fixed 64-bit words (u, v, t). Fixed-width records keep
// the reader allocation-free and make the file seekable by edge index.

const binaryMagic = "LPS1"

// BinaryReader reads a graph stream in the binary format.
type BinaryReader struct {
	r       *bufio.Reader
	started bool
	buf     [24]byte
	idx     int
}

// NewBinaryReader returns a BinaryReader over r. The magic header is
// validated on the first Next call.
func NewBinaryReader(r io.Reader) *BinaryReader {
	return &BinaryReader{r: bufio.NewReader(r)}
}

// Next implements Source.
func (b *BinaryReader) Next() (Edge, error) {
	if !b.started {
		var magic [4]byte
		if _, err := io.ReadFull(b.r, magic[:]); err != nil {
			// Deliberately not wrapped with %w: a missing or short magic
			// is a malformed stream, and wrapping io.EOF here would make
			// Collect/ForEach mistake it for a clean end of stream.
			return Edge{}, fmt.Errorf("stream: read binary magic: %v", err)
		}
		if string(magic[:]) != binaryMagic {
			return Edge{}, fmt.Errorf("stream: bad binary magic %q, want %q", magic, binaryMagic)
		}
		b.started = true
	}
	_, err := io.ReadFull(b.r, b.buf[:])
	if errors.Is(err, io.EOF) {
		return Edge{}, io.EOF
	}
	if err != nil {
		// A short record (ErrUnexpectedEOF) means truncation — report it,
		// don't silently end the stream.
		return Edge{}, fmt.Errorf("stream: read binary record %d: %w", b.idx, err)
	}
	b.idx++
	return Edge{
		U: binary.LittleEndian.Uint64(b.buf[0:8]),
		V: binary.LittleEndian.Uint64(b.buf[8:16]),
		T: int64(binary.LittleEndian.Uint64(b.buf[16:24])),
	}, nil
}

// WriteBinary writes edges from src to w in the binary format and returns
// the number of edges written.
func WriteBinary(w io.Writer, src Source) (int, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return 0, fmt.Errorf("stream: write binary magic: %w", err)
	}
	var buf [24]byte
	n := 0
	err := ForEach(src, func(e Edge) error {
		binary.LittleEndian.PutUint64(buf[0:8], e.U)
		binary.LittleEndian.PutUint64(buf[8:16], e.V)
		binary.LittleEndian.PutUint64(buf[16:24], uint64(e.T))
		if _, err := bw.Write(buf[:]); err != nil {
			return fmt.Errorf("stream: write edge %d: %w", n, err)
		}
		n++
		return nil
	})
	if err != nil {
		return n, err
	}
	if err := bw.Flush(); err != nil {
		return n, fmt.Errorf("stream: flush: %w", err)
	}
	return n, nil
}
