package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestTableASCIIAndCSV(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "b"},
		Notes:   []string{"a note"},
	}
	tab.AddRow(1, 2.5)
	tab.AddRow("x,y", 0.0001)
	var ascii bytes.Buffer
	if err := tab.WriteASCII(&ascii); err != nil {
		t.Fatal(err)
	}
	out := ascii.String()
	for _, want := range []string{"demo", "a", "2.5000", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("ASCII output missing %q:\n%s", want, out)
		}
	}
	var csv bytes.Buffer
	if err := tab.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want 3:\n%s", len(lines), csv.String())
	}
	if lines[0] != "a,b" {
		t.Errorf("CSV header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], `"x,y"`) {
		t.Errorf("comma cell not quoted: %q", lines[2])
	}
	if !strings.Contains(lines[2], "e-0") {
		t.Errorf("tiny float not in scientific notation: %q", lines[2])
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{3, "3"}, {-2, "-2"}, {2.5, "2.5000"}, {0, "0"}, {0.00005, "5.00e-05"},
	}
	for _, c := range cases {
		if got := formatFloat(c.in); got != c.want {
			t.Errorf("formatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e15", "e16", "e17", "e18", "e19", "e20", "e21", "e22", "e23"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("All()[%d].ID = %q, want %q (numeric order)", i, all[i].ID, id)
		}
	}
	if _, err := Lookup("e5"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown id should error")
	}
}

// timedExperiments lists the experiments whose tables hold timing or
// allocation columns, which vary from run to run.
var timedExperiments = map[string]bool{
	"e6": true, "e10": true, "e11": true, "e20": true, "e21": true, "e22": true, "e23": true,
}

// TestAllExperimentsRunQuick executes the entire suite in quick mode and
// sanity-checks the output tables. This is the harness's own integration
// test: every table/figure must be regenerable, and every table without
// a timing column must come out identical when run again at the same
// seed.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick suite still takes a few seconds")
	}
	cfg := RunConfig{Quick: true, Seed: 42}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if tab.Title == "" || len(tab.Columns) == 0 || len(tab.Rows) == 0 {
				t.Fatalf("%s produced an empty table: %+v", e.ID, tab)
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Errorf("%s row %d has %d cells, want %d", e.ID, i, len(row), len(tab.Columns))
				}
				for j, cell := range row {
					if cell == "NaN" || cell == "+Inf" || cell == "-Inf" {
						t.Errorf("%s row %d col %s = %s", e.ID, i, tab.Columns[j], cell)
					}
				}
			}
			if timedExperiments[e.ID] {
				return
			}
			again, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s rerun: %v", e.ID, err)
			}
			if len(again.Rows) != len(tab.Rows) {
				t.Fatalf("%s rerun has %d rows, first run %d", e.ID, len(again.Rows), len(tab.Rows))
			}
			for i := range tab.Rows {
				if !slices.Equal(tab.Rows[i], again.Rows[i]) {
					t.Errorf("%s is not reproducible at seed %d: row %d is %v, then %v", e.ID, cfg.Seed, i, tab.Rows[i], again.Rows[i])
				}
			}
		})
	}
}

// TestE2ShapeErrorShrinksWithK verifies the headline reproduction claim:
// estimator error decreases with sketch size.
func TestE2ShapeErrorShrinksWithK(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the e2 experiment")
	}
	tab, err := registry["e2"].Run(RunConfig{Quick: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	first, err1 := strconv.ParseFloat(tab.Rows[0][1], 64)
	last, err2 := strconv.ParseFloat(tab.Rows[len(tab.Rows)-1][1], 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("unparseable MAE cells: %v %v", err1, err2)
	}
	if last >= first {
		t.Errorf("Jaccard MAE did not shrink with k: %v → %v", first, last)
	}
}

// TestE5ShapeSketchBeatsReservoir verifies the equal-budget comparison
// shape on at least a majority of datasets in quick mode.
func TestE5ShapeSketchBeatsReservoir(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the e5 experiment")
	}
	tab, err := registry["e5"].Run(RunConfig{Quick: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Column 3 is AUC (after dataset, system, positives). Only the
	// structured streams (coauthor, flickr — the first two triples)
	// carry temporal signal; the growth-process and uniform stand-ins
	// are signal-free for every system (see the experiment notes).
	const aucCol = 3
	wins, datasets := 0, 0
	for i := 0; i+2 < len(tab.Rows) && datasets < 2; i += 3 {
		sketchAUC, _ := strconv.ParseFloat(tab.Rows[i+1][aucCol], 64)
		reservoirAUC, _ := strconv.ParseFloat(tab.Rows[i+2][aucCol], 64)
		datasets++
		if sketchAUC > reservoirAUC {
			wins++
		}
	}
	if datasets == 0 {
		t.Fatal("no dataset triples in e5 output")
	}
	if wins != datasets {
		t.Errorf("sketch beat reservoir on only %d of %d structured datasets", wins, datasets)
	}
}

func TestSampleQueryPairs(t *testing.T) {
	cfg := RunConfig{Quick: true, Seed: 1}
	edges, err := loadDataset("coauthor", cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := buildExact(edges)
	pairs := sampleQueryPairs(g, 300, 2)
	if len(pairs) != 300 {
		t.Fatalf("sampled %d pairs, want 300", len(pairs))
	}
	seen := map[[2]uint64]bool{}
	withOverlap := 0
	for _, p := range pairs {
		if p.u == p.v {
			t.Fatal("self pair sampled")
		}
		key := [2]uint64{p.u, p.v}
		if seen[key] {
			t.Fatal("duplicate pair sampled")
		}
		seen[key] = true
		if p.cn > 0 {
			withOverlap++
		}
	}
	// Two-hop biased sampling: the majority must have common neighbors.
	if withOverlap < len(pairs)/2 {
		t.Errorf("only %d of %d pairs have overlap", withOverlap, len(pairs))
	}
}

func TestSampleQueryPairsTinyGraph(t *testing.T) {
	g := buildExact(nil)
	if got := sampleQueryPairs(g, 10, 1); got != nil {
		t.Errorf("empty graph should yield no pairs, got %v", got)
	}
}

// failWriter fails after n bytes, for error-path coverage.
type failWriter struct{ left int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, errWriteFailed
	}
	n := len(p)
	if n > f.left {
		n = f.left
	}
	f.left -= n
	if n < len(p) {
		return n, errWriteFailed
	}
	return n, nil
}

var errWriteFailed = errors.New("write failed")

func TestTableWriteErrors(t *testing.T) {
	tab := &Table{Title: "x", Columns: []string{"a"}, Rows: [][]string{{"1"}}}
	if err := tab.WriteASCII(&failWriter{left: 2}); err == nil {
		t.Error("WriteASCII should propagate write errors")
	}
	if err := tab.WriteCSV(&failWriter{left: 1}); err == nil {
		t.Error("WriteCSV should propagate write errors")
	}
}

func TestTableWriteJSON(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "b"},
		Notes:   []string{"a note"},
	}
	tab.AddRow(1, 2.5)
	var buf bytes.Buffer
	if err := tab.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
		Notes   []string   `json:"notes"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.Title != "demo" || len(doc.Columns) != 2 || len(doc.Rows) != 1 || doc.Rows[0][1] != "2.5000" {
		t.Errorf("round-trip mismatch: %+v", doc)
	}
	if len(doc.Notes) != 1 || doc.Notes[0] != "a note" {
		t.Errorf("notes mismatch: %v", doc.Notes)
	}
}
