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
// rejected here: it is a stream of edges, not a store image.
func LoadAny(r io.Reader) (Store, error) {
	// Peek, don't consume: each loader re-verifies its own magic. One
	// binReader serves the loader too, so a random-access input (see
	// randomAccess) is still decoded in place.
	rd := newBinReader(r)
	magic, err := rd.br.Peek(4)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("core: load store image magic: %w", err)
	}
	switch string(magic) {
	case persistMagic:
		return loadSketchStore(rd)
	case shardedMagic:
		return loadSharded(rd)
	case windowedMagic:
		return loadWindowed(rd)
	case directedMagic:
		return loadDirected(rd)
	case shardedDirectedMagic:
		return loadShardedDirected(rd)
	case dynamicMagic:
		return loadDynamicStore(rd)
	default:
		return nil, fmt.Errorf("core: unknown store image magic %q", magic)
	}
}
