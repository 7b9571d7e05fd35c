// Command e2e is the end-to-end benchmark of lpserver. It builds the real
// cmd/lpserver, boots it as a child process with its shipped defaults
// on a WAL directory holding a snapshot of a seeded R-MAT base graph,
// drives it over HTTP through one of four workloads, checks every
// answer, and prints each metric as "workload metric value unit" and,
// last, one JSON line:
//
//	bash bench/e2e/run.sh --workload topk_aa --seed 1 --seconds 18 --trace 0
//
// With -trace 1 it runs the same workload against this binary
// re-executed as a traced copy of the server (-serve) and reports
// per-layer metrics instead. README.md describes the workloads, the
// metrics and the trace.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// lpserverFlags is what the benchmark passes to lpserver besides the
// defaults: nothing but the listen address and the WAL directory.
const lpserverFlags = "-addr <loopback port> -wal-dir <copy of the base snapshot dir>"

// lpserverDefaults are the shipped defaults the benchmark measures.
const lpserverDefaults = "-mode concurrent -k 128 -shards 8 -distinct-degrees -monitor -ingest-workers 0 -wal-fsync interval"

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "ingest | topk_aa | scorebatch_jaccard | mixed (empty: all four)")
	seed := fs.Uint64("seed", 1, "seed of every input")
	seconds := fs.Int("seconds", 18, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: run against the traced server and report per-layer metrics")
	runs := fs.Int("runs", 1, "repeat with seeds seed .. seed+runs-1 and summarise each metric's spread")
	root := fs.String("root", ".", "repository root: lpserver is built from it, BENCHMARK.json read from it")
	work := fs.String("work", ".bench_build/e2e-run", "working directory for binaries, WAL copies, logs and trace.json")
	plain := fs.Bool("serve-plain", false, "run against this binary's undecorated -serve server instead of lpserver")
	jsonOut := fs.String("json", "", "file for every run's results with an env stamp (default <work>/results.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	if fs.NArg() > 0 || *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		return fail(errors.New("bad arguments; see -help"))
	}
	var selected []workload
	if *name == "" {
		selected = workloads
	} else if w, ok := workloadNamed(*name); ok {
		selected = []workload{w}
	} else {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return fail(err)
	}
	cfg := config{sz: fullSizes, seconds: *seconds, work: *work, traced: *trace == 1, plain: *plain}
	var err error
	if cfg.self, err = os.Executable(); err != nil {
		return fail(err)
	}
	if !cfg.traced && !cfg.plain {
		if cfg.lpserver, err = buildLPServer(*root, *work); err != nil {
			return fail(err)
		}
	}
	if *jsonOut == "" {
		*jsonOut = filepath.Join(*work, "results.json")
	}

	report := struct {
		Env     envStamp     `json:"env"`
		Summary []spread     `json:"summary,omitempty"`
		Runs    []*runResult `json:"runs"`
	}{Env: stamp(*root, cfg)}
	code := 0
	for i := 0; i < *runs; i++ {
		for _, w := range selected {
			r, err := runOnce(cfg, w, *seed+uint64(i))
			if err != nil {
				return fail(fmt.Errorf("%s seed %d: %w", w.name, *seed+uint64(i), err))
			}
			report.Runs = append(report.Runs, r)
			if !r.Correct {
				fmt.Fprintln(stderr, "e2e: FAILED", r.describe())
				code = 1
			}
			if err := printRun(stdout, r); err != nil {
				return fail(err)
			}
		}
	}
	if *runs > 1 {
		report.Summary = summarise(stdout, stderr, report.Runs, *root)
	}
	var data bytes.Buffer
	enc := json.NewEncoder(&data)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return fail(err)
	}
	if err := os.WriteFile(*jsonOut, data.Bytes(), 0o644); err != nil {
		return fail(err)
	}
	return code
}

// buildLPServer builds cmd/lpserver from the repository at root.
func buildLPServer(root, work string) (string, error) {
	out, err := filepath.Abs(filepath.Join(work, "lpserver"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", out, "./cmd/lpserver")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build lpserver: %v\n%s", err, msg)
	}
	return out, nil
}

// printRun writes the run's metrics as "workload metric value unit"
// lines, then one JSON result line: correct, attempted, failed and the
// end-to-end metrics untraced, the per-layer metrics traced.
func printRun(w io.Writer, r *runResult) error {
	for _, group := range [][]metric{r.EndToEnd, r.PerLayer, r.Details} {
		for _, m := range group {
			fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]value)}
	ms := r.EndToEnd
	if r.Traced {
		ms = r.PerLayer
	}
	for _, m := range ms {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// envStamp records where and how the numbers were measured.
type envStamp struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Server     string `json:"server"`
	Commit     string `json:"commit"`
	Seconds    int    `json:"seconds"`
	Sizes      sizes  `json:"sizes"`
}

func stamp(root string, cfg config) envStamp {
	server := "lpserver " + lpserverDefaults + " " + lpserverFlags
	switch {
	case cfg.traced:
		server = "e2e -serve (traced copy of lpserver's boot) " + lpserverFlags
	case cfg.plain:
		server = "e2e -serve -plain (undecorated copy of lpserver's boot) " + lpserverFlags
	}
	return envStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Server:     server,
		Commit:     commit(root),
		Seconds:    cfg.seconds,
		Sizes:      cfg.sz,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from root/.git without running git,
// which would search the directories above root; "unknown" outside a
// git checkout.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name  string  `json:"name"`
	Bound float64 `json:"bound"`
}

// spread is one metric's distribution over the runs of one workload.
type spread struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	Spread   float64 `json:"spread"` // (q3 - q1) / median
	Bound    float64 `json:"bound,omitempty"`
}

// summarise prints, per workload and metric, the median and quartiles
// over the runs and the spread (q3 - q1) / median, flagging a spread
// above the metric's bound in BENCHMARK.json, and returns the rows.
func summarise(stdout, stderr io.Writer, runs []*runResult, root string) []spread {
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json")); err != nil {
		fmt.Fprintln(stderr, "e2e: no bounds to compare against:", err)
	} else if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(stderr, "e2e: BENCHMARK.json:", err)
	}
	bounds := make(map[string]float64)
	for _, b := range spec.EndToEnd {
		bounds[b.Name] = b.Bound
	}
	type key struct{ workload, metric string }
	values := make(map[key][]float64)
	var order []key
	for _, r := range runs {
		ms := r.EndToEnd
		if r.Traced {
			ms = append(append([]metric(nil), r.EndToEnd...), r.PerLayer...)
		}
		for _, m := range ms {
			k := key{r.Workload, m.Name}
			if _, ok := values[k]; !ok {
				order = append(order, k)
			}
			values[k] = append(values[k], m.Value)
		}
	}
	fmt.Fprintln(stdout, "summary workload metric median q1 q3 spread_pct bound_pct")
	var rows []spread
	for _, k := range order {
		s := spread{Workload: k.workload, Metric: k.metric, Bound: bounds[k.metric]}
		s.Q1, s.Median, s.Q3 = quartiles(values[k])
		if s.Median != 0 {
			s.Spread = (s.Q3 - s.Q1) / s.Median
		}
		flag := ""
		if s.Bound > 0 && s.Spread > s.Bound && k.metric != "setup_s" {
			flag = " OVER_BOUND"
		}
		fmt.Fprintf(stdout, "summary %s %s %.6g %.6g %.6g %.2f %.0f%s\n", s.Workload, s.Metric, s.Median, s.Q1, s.Q3, 100*s.Spread, 100*s.Bound, flag)
		rows = append(rows, s)
	}
	return rows
}
