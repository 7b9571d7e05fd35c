package bench

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	linkpred "linkpred"
	"linkpred/internal/core"
	"linkpred/internal/gen"
	"linkpred/internal/server"
	"linkpred/internal/stream"
	"linkpred/internal/wal"
)

func init() {
	register(Experiment{ID: "e22", Title: "E22: WAL durability overhead and crash recovery", Kind: "figure", Run: runE22})
}

// runE22 measures what crash safety costs and what recovery buys: the
// batched parallel ingest of E20 is rerun with every acknowledged batch
// first appended to the write-ahead log under each fsync policy, then a
// full recovery cycle (newest snapshot + log-tail replay) is timed. The
// interval policy is the deployment default — group commit amortises
// the fsync across ~100ms of batches, so its overhead against the
// no-WAL baseline is the headline number.
func runE22(cfg RunConfig) (*Table, error) {
	src, err := gen.Open(gen.DatasetCoauthor, cfg.scale(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	edges, err := stream.Collect(src)
	if err != nil {
		return nil, err
	}
	const k = 64
	const nShards = 32
	batch := cfg.batch()
	g := cfg.parallel()
	t := &Table{
		Title:   fmt.Sprintf("E22: WAL durability over %d raw coauthor edges (k=%d, %d shards, batch=%d, %d writers)", len(edges), k, nShards, batch, g),
		Columns: []string{"mode", "ns_per_edge", "edges_per_sec", "overhead_vs_none"},
		Notes: []string{
			"every mode runs the same batched parallel ingest; WAL modes append each batch to the log before applying it",
			"wal-always fsyncs per batch (durable on ack), wal-interval group-commits on a 100ms timer, wal-never leaves syncing to the page cache",
			"recover = load newest snapshot + replay the unpruned log tail; its ns_per_edge is per recovered edge",
		},
	}

	// ingestOnce runs one full parallel ingest into a fresh store; with
	// d != nil each batch is logged before it is applied.
	ingestOnce := func(s *core.Sharded, d *wal.Durable) time.Duration {
		per := len(edges) / g
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < g; w++ {
			lo, hi := w*per, (w+1)*per
			if w == g-1 {
				hi = len(edges)
			}
			wg.Add(1)
			go func(chunk []stream.Edge) {
				defer wg.Done()
				for lo := 0; lo < len(chunk); lo += batch {
					hi := lo + batch
					if hi > len(chunk) {
						hi = len(chunk)
					}
					if d != nil {
						d.Ingest(chunk[lo:hi], s.ProcessEdges)
					} else {
						s.ProcessEdges(chunk[lo:hi])
					}
				}
			}(edges[lo:hi])
		}
		wg.Wait()
		return time.Since(start)
	}

	measure := func(policy wal.FsyncPolicy, withWAL bool) (float64, error) {
		best := time.Duration(0)
		for pass := 0; pass < 2; pass++ {
			s, err := core.NewSharded(core.Config{K: k, Seed: cfg.Seed}, nShards)
			if err != nil {
				return 0, err
			}
			var d *wal.Durable
			if withWAL {
				dir, err := os.MkdirTemp("", "lpbench-wal-")
				if err != nil {
					return 0, err
				}
				defer os.RemoveAll(dir)
				w, err := wal.Open(dir, wal.Options{Fsync: policy})
				if err != nil {
					return 0, err
				}
				d = wal.NewDurable(w, dir, wal.KindEdge, func(wr io.Writer) error { return s.Save(wr) })
			}
			el := ingestOnce(s, d)
			if d != nil {
				if err := d.WAL().Close(); err != nil {
					return 0, err
				}
			}
			if pass == 0 || el < best {
				best = el
			}
		}
		return float64(best.Nanoseconds()) / float64(len(edges)), nil
	}

	base, err := measure(0, false)
	if err != nil {
		return nil, err
	}
	t.AddRow("none", base, 1e9/base, 1.0)
	for _, m := range []struct {
		name   string
		policy wal.FsyncPolicy
	}{
		{"wal-never", wal.FsyncNever},
		{"wal-interval", wal.FsyncInterval},
		{"wal-always", wal.FsyncAlways},
	} {
		ns, err := measure(m.policy, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(m.name, ns, 1e9/ns, ns/base)
	}

	// Recovery cycle: ingest with a mid-stream checkpoint, abandon the
	// log without a final checkpoint (a crash), and time bringing a
	// fresh store back from snapshot + tail replay.
	dir, err := os.MkdirTemp("", "lpbench-recover-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s, err := core.NewSharded(core.Config{K: k, Seed: cfg.Seed}, nShards)
	if err != nil {
		return nil, err
	}
	// Small segments force a multi-segment log so both recovery rows
	// replay across segment boundaries, the shape batched replay targets.
	w, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncNever, SegmentBytes: 1 << 20})
	if err != nil {
		return nil, err
	}
	d := wal.NewDurable(w, dir, wal.KindEdge, func(wr io.Writer) error { return s.Save(wr) })
	half := len(edges) / 2
	for lo := 0; lo < len(edges); lo += batch {
		hi := lo + batch
		if hi > len(edges) {
			hi = len(edges)
		}
		if err := d.Ingest(edges[lo:hi], s.ProcessEdges); err != nil {
			return nil, err
		}
		if lo < half && hi >= half {
			if err := d.Checkpoint(); err != nil {
				return nil, err
			}
		}
	}
	if err := d.WAL().Close(); err != nil { // crash: no final checkpoint
		return nil, err
	}
	start := time.Now()
	rec, err := core.NewSharded(core.Config{K: k, Seed: cfg.Seed}, nShards)
	if err != nil {
		return nil, err
	}
	res, err := wal.Recover(nil, dir, func(r io.Reader) error {
		loaded, err := core.LoadSharded(r)
		if err != nil {
			return err
		}
		rec = loaded
		return nil
	}, func(r wal.Record) error {
		rec.ProcessEdges(r.Edges)
		return nil
	})
	if err != nil {
		return nil, err
	}
	el := time.Since(start)
	if got := res.LastSeq(); got != uint64(len(edges)) {
		return nil, fmt.Errorf("e22: recovered %d of %d edges", got, len(edges))
	}
	ns := float64(el.Nanoseconds()) / float64(len(edges))
	t.AddRow("recover (snapshot+replay)", ns, 1e9/ns, ns/base)

	// The same crashed log through the boot lpserver and lpstream run:
	// batched replay, where consecutive same-kind records are coalesced
	// into large apply batches, then the log reopened to continue.
	start = time.Now()
	fresh, err := linkpred.NewConcurrent(linkpred.Config{K: k, Seed: cfg.Seed}, nShards)
	if err != nil {
		return nil, err
	}
	_, dB, resB, err := server.Boot(dir, fresh, wal.Options{Fsync: wal.FsyncNever})
	if err != nil {
		return nil, err
	}
	elB := time.Since(start)
	if err := dB.WAL().Close(); err != nil {
		return nil, err
	}
	if got := resB.LastSeq(); got != uint64(len(edges)) {
		return nil, fmt.Errorf("e22: batched replay recovered %d of %d edges", got, len(edges))
	}
	nsB := float64(elB.Nanoseconds()) / float64(len(edges))
	t.AddRow("recover-batched", nsB, 1e9/nsB, nsB/base)
	t.Notes = append(t.Notes,
		"recover-batched is the server boot: it coalesces the log's records into batches of at least 16384 edges, applies each with one batched ingest call, and reopens the log",
		"the log uses 1 MiB segments so both recovery rows replay a multi-segment tail")
	return t, nil
}
