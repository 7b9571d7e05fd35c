package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"e1 ", "e10", "e18"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("list output missing %q", id)
		}
	}
}

func TestRunSingleExperimentWithCSV(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-exp", "e1", "-quick", "-csv", dir}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "E1: dataset statistics") {
		t.Errorf("output missing table title:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "[e1 completed in") {
		t.Error("output missing completion line")
	}
	csv, err := os.ReadFile(filepath.Join(dir, "e1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "dataset,") {
		t.Errorf("csv header wrong: %q", string(csv[:40]))
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "nope"}, &out); err == nil {
		t.Error("unknown experiment should error")
	}
	if err := run([]string{"-bogus-flag"}, &out); err == nil {
		t.Error("bad flag should error")
	}
}

func TestRunIngestScalingWithJSON(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-exp", "e20", "-quick", "-parallel", "2", "-batch", "64", "-json", dir}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "E20: batched parallel ingest") {
		t.Errorf("output missing e20 title:\n%s", out.String())
	}
	js, err := os.ReadFile(filepath.Join(dir, "e20.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatalf("e20.json invalid: %v", err)
	}
	// -parallel 2 sweeps goroutines 1 and 2 with two modes each
	// (per-edge, batched), then the two live-server wire-format rows
	// (text vs binary frames).
	if len(doc.Rows) != 6 {
		t.Errorf("e20.json has %d rows, want 6:\n%s", len(doc.Rows), js)
	}
	if len(doc.Columns) == 0 || doc.Columns[0] != "mode" {
		t.Errorf("unexpected columns: %v", doc.Columns)
	}
	last := doc.Rows[len(doc.Rows)-1]
	if len(last) == 0 || last[0] != "http-binary" {
		t.Errorf("last row should be the binary-ingest row, got %v", last)
	}
}
