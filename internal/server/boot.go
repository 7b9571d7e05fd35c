package server

import (
	"fmt"
	"io"

	linkpred "linkpred"
	"linkpred/internal/stream"
	"linkpred/internal/wal"
)

// Boot rebuilds the store a write-ahead log directory holds and opens
// the log to continue it: the boot every durable program runs. The
// newest valid snapshot, whatever mode wrote it, replaces eng, and the
// log tail replays on top in coalesced batches (wal.RecoverBatched),
// inserts through ObserveEdges and KindDelete records through
// DeleterOf. A record the engine cannot replay is an error: a delete on
// an engine that cannot delete, or an insert of the other orientation
// than the engine reads, since replaying arcs as edges or edges as arcs
// would serve a different graph from the one that was logged. The log
// then opens with opts, handing out sequence numbers from
// res.LastSeq()+1, which a snapshot stamped past a repaired append may
// exceed. The Durable logs records of the engine's insert kind and
// checkpoints through the engine's Save (Durable.Restore moves that to
// a restored image).
func Boot(dir string, eng linkpred.Engine, opts wal.Options) (linkpred.Engine, *wal.Durable, wal.RecoverResult, error) {
	res, err := wal.RecoverBatched(opts.FS, dir, func(r io.Reader) error {
		loaded, err := linkpred.LoadAnyEngine(r)
		if err != nil {
			return err
		}
		eng = loaded
		return nil
	}, func(kind wal.Kind, edges []stream.Edge) error {
		switch {
		case kind == wal.KindDelete:
			del, ok := linkpred.DeleterOf(eng)
			if !ok {
				return fmt.Errorf("log holds delete records but mode %q cannot delete; rerun with -mode dynamic or -deletes", linkpred.ModeOf(eng))
			}
			del.DeleteEdges(edges)
		case kind != insertKind(eng):
			return fmt.Errorf("log holds %s records but mode %q reads %ss; rerun with the matching -mode or -directed setting",
				kindNames[kind], linkpred.ModeOf(eng), kindNames[insertKind(eng)])
		default:
			eng.ObserveEdges(edges)
		}
		return nil
	}, wal.BatchedReplayOptions{})
	if err != nil {
		return nil, nil, res, fmt.Errorf("wal recovery: %w", err)
	}
	opts.NextSeq = res.LastSeq() + 1
	w, err := wal.Open(dir, opts)
	if err != nil {
		return nil, nil, res, fmt.Errorf("open wal: %w", err)
	}
	return eng, wal.NewDurable(w, dir, insertKind(eng), eng.Save), res, nil
}

// kindNames spells the insert kinds for Boot's refusals.
var kindNames = map[wal.Kind]string{wal.KindEdge: "undirected edge", wal.KindArc: "directed arc"}

// insertKind is the record kind eng logs and replays its inserts as:
// directed engines read arcs, so a replayed record keeps its
// orientation.
func insertKind(eng linkpred.Engine) wal.Kind {
	if linkpred.DirectedEngine(eng) {
		return wal.KindArc
	}
	return wal.KindEdge
}
