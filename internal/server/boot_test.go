package server

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	linkpred "linkpred"
	"linkpred/internal/stream"
	"linkpred/internal/wal"
)

// bootBatch is one logged batch of a boot fixture: inserts, or
// retractions when del is set.
type bootBatch struct {
	del   bool
	edges []stream.Edge
}

// bootFixture is five insert batches whose timestamps span more than
// two windows of bootEngine's windowed engine, so replay rotates
// generations. In dynamic mode a retraction of half the first batch
// follows the second.
func bootFixture(mode string) []bootBatch {
	var out []bootBatch
	x := uint64(1)
	for i := 0; i < 5; i++ {
		edges := make([]stream.Edge, 40)
		for j := range edges {
			x = x*6364136223846793005 + 1442695040888963407
			edges[j] = stream.Edge{U: x >> 58, V: (x >> 40) % 64, T: int64(i*500 + j*10)}
		}
		out = append(out, bootBatch{edges: edges})
		if mode == linkpred.ModeDynamic && i == 1 {
			out = append(out, bootBatch{del: true, edges: out[0].edges[:20]})
		}
	}
	return out
}

// bootEngine is an empty engine of the given mode.
func bootEngine(t *testing.T, mode string) linkpred.Engine {
	t.Helper()
	eng, err := linkpred.NewEngine(linkpred.EngineSpec{
		Mode: mode, Config: linkpred.Config{K: 32, Seed: 3}, Shards: 4,
		Window: 1000, Gens: 4, RecoverDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// feedBatch applies b to eng, through d's log when d is non-nil.
func feedBatch(d *wal.Durable, eng linkpred.Engine, b bootBatch) error {
	kind, apply := insertKind(eng), eng.ObserveEdges
	if b.del {
		del, _ := linkpred.DeleterOf(eng)
		kind, apply = wal.KindDelete, func(es []stream.Edge) { del.DeleteEdges(es) }
	}
	if d == nil {
		apply(b.edges)
		return nil
	}
	return d.IngestRecord(kind, nil, b.edges, apply)
}

// TestBootTable boots every durable mode from each directory state a
// restart can find and requires what each program used to check on its
// own: the booted engine saves exactly what a reference fed the
// acknowledged batches saves, and the next append continues at
// LastSeq()+1, so a batch logged after the boot survives the next one.
// The repaired state is a snapshot stamped past a cut append: its log
// ends below the snapshot, and reusing those sequence numbers would
// lose the next batch.
func TestBootTable(t *testing.T) {
	states := []struct {
		name string
		// script runs on a log booted from an empty directory: i logs
		// the next batch, f fails it with an fsync fault the repair
		// cuts, c checkpoints.
		script   string
		clean    bool // exit through Close (a final checkpoint), not a crash
		snapshot bool // whether the reboot loads a snapshot
	}{
		{name: "empty"},
		{name: "log-only", script: "iii"},
		{name: "snapshot+tail", script: "iicii", snapshot: true},
		{name: "snapshot-only", script: "iiii", clean: true, snapshot: true},
		{name: "snapshot-past-repair", script: "iif", clean: true, snapshot: true},
	}
	for _, mode := range []string{linkpred.ModeConcurrent, linkpred.ModeConcurrentDirected, linkpred.ModeDynamic, linkpred.ModeWindowed} {
		for _, st := range states {
			t.Run(mode+"/"+st.name, func(t *testing.T) {
				fs := wal.NewFaultFS()
				opts := wal.Options{FS: fs, Fsync: wal.FsyncAlways, Heal: fastHeal}
				batches := bootFixture(mode)
				var acked []bootBatch
				if st.script != "" {
					eng, d, _, err := Boot("/wal", bootEngine(t, mode), opts)
					if err != nil {
						t.Fatal(err)
					}
					for _, op := range st.script {
						switch op {
						case 'c':
							if err := d.Checkpoint(); err != nil {
								t.Fatal(err)
							}
							continue
						case 'f':
							fs.FailSyncsN(0, 1, errors.New("injected fsync fault"))
						}
						b := batches[0]
						batches = batches[1:]
						err := feedBatch(d, eng, b)
						if op == 'f' {
							if err == nil {
								t.Fatal("an ingest whose fsync fails was acknowledged")
							}
							waitHealthy(t, d)
							continue
						}
						if err != nil {
							t.Fatal(err)
						}
						acked = append(acked, b)
					}
					if st.clean {
						err = d.Close()
					} else {
						err = d.WAL().Close() // crash: no final checkpoint
					}
					if err != nil {
						t.Fatal(err)
					}
				}

				reboot := func() (linkpred.Engine, *wal.Durable, wal.RecoverResult) {
					t.Helper()
					eng, d, res, err := Boot("/wal", bootEngine(t, mode), opts)
					if err != nil {
						t.Fatalf("boot: %v\n%s", err, fs.Dump())
					}
					if got := linkpred.ModeOf(eng); got != mode {
						t.Fatalf("booted a %s engine, want %s", got, mode)
					}
					ref := bootEngine(t, mode)
					for _, b := range acked {
						if err := feedBatch(nil, ref, b); err != nil {
							t.Fatal(err)
						}
					}
					if !bytes.Equal(imageBytes(t, eng), imageBytes(t, ref)) {
						t.Fatalf("booted engine differs from a reference fed the %d acknowledged batches (recovery %+v)\n%s",
							len(acked), res, fs.Dump())
					}
					return eng, d, res
				}
				eng, d, res := reboot()
				if res.SnapshotLoaded != st.snapshot {
					t.Errorf("SnapshotLoaded = %v, want %v", res.SnapshotLoaded, st.snapshot)
				}
				next := batches[0]
				if err := feedBatch(d, eng, next); err != nil {
					t.Fatal(err)
				}
				if got, want := d.WAL().LastSeq(), res.LastSeq()+uint64(len(next.edges)); got != want {
					t.Fatalf("after one %d-edge append the log ends at seq %d, want %d: the append did not start at LastSeq()+1 = %d",
						len(next.edges), got, want, res.LastSeq()+1)
				}
				acked = append(acked, next)
				if err := d.WAL().Close(); err != nil {
					t.Fatal(err)
				}
				_, d, _ = reboot()
				d.WAL().Close()
			})
		}
	}
}

// TestBootRefusesRecordsTheEngineCannotReplay: a log whose records the
// engine cannot replay is an error, and no log is opened: retractions
// booted into an engine that cannot delete, and inserts of the other
// orientation.
func TestBootRefusesRecordsTheEngineCannotReplay(t *testing.T) {
	for _, tc := range []struct{ wrote, boot, want string }{
		{linkpred.ModeDynamic, linkpred.ModeConcurrent, "log holds delete records"},
		{linkpred.ModeConcurrent, linkpred.ModeConcurrentDirected, "log holds undirected edge records"},
		{linkpred.ModeConcurrentDirected, linkpred.ModeWindowed, "log holds directed arc records"},
	} {
		t.Run(tc.wrote+"-log/"+tc.boot, func(t *testing.T) {
			opts := wal.Options{FS: wal.NewFaultFS(), Fsync: wal.FsyncAlways, Heal: fastHeal}
			eng, d, _, err := Boot("/wal", bootEngine(t, tc.wrote), opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range bootFixture(tc.wrote) {
				if err := feedBatch(d, eng, b); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.WAL().Close(); err != nil {
				t.Fatal(err)
			}
			_, d, _, err = Boot("/wal", bootEngine(t, tc.boot), opts)
			if err == nil {
				d.WAL().Close()
				t.Fatalf("a %s engine booted from a %s log", tc.boot, tc.wrote)
			}
			if !strings.Contains(err.Error(), tc.want) || d != nil {
				t.Fatalf("boot = %v, %v; want a nil Durable and an error containing %q", d, err, tc.want)
			}
		})
	}
}
