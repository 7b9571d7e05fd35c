package core

import (
	"fmt"
	"io"
)

// LoadAny re-opens a store image of any type by sniffing its 4-byte
// magic header and dispatching to the matching loader. It returns the
// loaded store as a Store; callers that need the concrete type (for
// capability methods) type-switch on the result.
//
// The six store images are distinguishable by construction — each
// format opens with its own magic (LPSK plain, LPSH sharded, LPSW
// windowed, LPSD directed, LPDH sharded-directed, LPDY dynamic) — so a
// checkpoint file is self-describing and a server can restore whatever
// mode wrote it. The stream binary format (LPS1, internal/stream) is deliberately
// rejected here: it is a stream of edges, not a store image. So are
// bytes after the image, which Save never writes.
//
// A random-access input (see randomAccess) is decoded in place. A
// checked input (see checkedInput), such as a WAL snapshot's payload,
// must match its checksum before LoadAny returns a store.
func LoadAny(r io.Reader) (Store, error) { return load(r, loadAny) }

func loadAny(rd *binReader) (Store, error) {
	// Peek, don't consume: each loader re-verifies its own magic.
	magic, err := rd.br.Peek(4)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("core: load store image magic: %w", err)
	}
	var s Store
	switch string(magic) {
	case persistMagic:
		s, err = loadSketchStore(rd)
	case shardedMagic:
		s, err = loadSharded(rd)
	case windowedMagic:
		s, err = loadWindowed(rd)
	case directedMagic:
		s, err = loadDirected(rd)
	case shardedDirectedMagic:
		s, err = loadShardedDirected(rd)
	case dynamicMagic:
		s, err = loadDynamicStore(rd)
	default:
		return nil, fmt.Errorf("core: unknown store image magic %q", magic)
	}
	if err != nil {
		return nil, err
	}
	if err := rd.end(); err != nil {
		return nil, err
	}
	return s, nil
}
