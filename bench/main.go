// Command adpmbench is the repository's benchmark: five named workloads
// measured end to end against child processes with tracing off, and a
// serial traced run per workload for the per-layer numbers. See
// README.md beside this file and BENCHMARK.json at the repository root.
//
// Usage (from the repository root):
//
//	bash bench/run.sh                          all workloads, both phases, writes bench/out/results.json
//	bash bench/run.sh -repeat 2                the whole set twice; exits 1 when the sets disagree
//	bash bench/run.sh --workload serve-small --seed 3 --seconds 15 --trace 0   one run, driver contract
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// config is what the flags select.
type config struct {
	// self is this executable, re-run for a workload that needs a fresh
	// process and as the keep-awake spinner; empty (under go test) runs
	// the workload in place and starts no spinners.
	self    string
	root    string
	out     string
	tmp     string
	bins    binaries
	seed    int64
	seconds float64
	short   bool
}

// shortSeconds is the smoke test's run length.
const shortSeconds = 0.5

func (c *config) measure() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// warm is the discarded warm-up: 3s of the issue's 20s runs, kept in
// proportion when the run is shorter. The smoke test has none, so that
// its half second still sees every kind of request.
func (c *config) warm() time.Duration {
	if c.short {
		return 0
	}
	return c.measure() * 3 / 20
}

func main() {
	os.Exit(run())
}

func run() int {
	awake := flag.Duration("keep-awake", 0, "internal: spin in the idle scheduling class for this long (see keepAwake)")
	name := flag.String("workload", "", "run this one workload and print the driver's result line (default: all)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 15, "length of one measured run")
	traced := flag.Int("trace", 0, "with -workload: 0 runs the end-to-end phase, 1 the per-layer phase")
	repeat := flag.Int("repeat", 0, "run the whole set this many times and compare the sets against the declared bounds")
	short := flag.Bool("short", false, "smoke test: half-second runs and a fraction of the fixed work; numbers mean nothing")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "adpmbench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *awake > 0 {
		spinIdle(*awake)
		return 0
	}
	if *traced != 0 && (*traced != 1 || *name == "") {
		fmt.Fprintln(os.Stderr, "adpmbench: -trace is 0 or 1 and needs -workload")
		return 2
	}

	cfg := &config{seed: *seed, seconds: *seconds, short: *short}
	cfg.self, _ = os.Executable()
	if cfg.short {
		cfg.seconds = shortSeconds
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "adpmbench: -seconds must be positive")
		return 2
	}
	var err error
	if cfg.root, err = findRoot(); err != nil {
		fmt.Fprintln(os.Stderr, "adpmbench:", err)
		return 1
	}
	cfg.out = filepath.Join(cfg.root, "bench", "out")
	// A directory of this process's own: a set runs a second adpmbench.
	cfg.tmp = filepath.Join(cfg.out, "tmp", fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "adpmbench:", err)
		return 1
	}

	// Children die and temp data goes whichever way this process ends.
	cleanup := func() {
		killAll()
		_ = os.RemoveAll(cfg.tmp)
		_ = os.Remove(filepath.Dir(cfg.tmp)) // when no other adpmbench is using it
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		cleanup()
		os.Exit(130)
	}()
	defer func() {
		if r := recover(); r != nil {
			cleanup()
			panic(r)
		}
		cleanup()
	}()

	w, known := workloadByName(*name)
	if *name != "" && !known {
		fmt.Fprintf(os.Stderr, "adpmbench: unknown workload %q\n", *name)
		return 2
	}
	var buildTime time.Duration
	if !known || (w.Stack != "library" && *traced == 0) { // only the end-to-end phase of a serving workload starts processes
		if cfg.bins, buildTime, err = buildBinaries(cfg.root, filepath.Join(cfg.out, "build", "bin")); err != nil {
			fmt.Fprintln(os.Stderr, "adpmbench:", err)
			return 1
		}
	}

	switch {
	case known:
		return runContract(cfg, w, *traced == 1)
	case *repeat > 0:
		return runRepeat(cfg, *repeat)
	default:
		set, err := runSet(cfg, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "adpmbench:", err)
			return 1
		}
		file := resultsFile{Stamp: stamp(cfg, buildTime), Seconds: cfg.seconds, Workloads: set}
		if err := writeJSON(filepath.Join(cfg.out, "results.json"), &file); err != nil {
			fmt.Fprintln(os.Stderr, "adpmbench:", err)
			return 1
		}
		fmt.Printf("\nwrote %s\n", filepath.Join(cfg.out, "results.json"))
		for _, w := range set {
			if !w.correct() {
				return 1
			}
		}
		return 0
	}
}

// findRoot locates the checkout: the working directory (run.sh) or its
// parent (go -C bench run .).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "adpmd")); err == nil && st.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no cmd/adpmd under %s or its parent: run from the repository root", wd)
}

// workloadResult is everything one workload produced in one set.
type workloadResult struct {
	Workload string     `json:"workload"`
	Why      string     `json:"why"`
	Seed     int64      `json:"seed"`
	E2E      *e2eResult `json:"end_to_end,omitempty"`
	// PerLayer, TraceAttempted, TraceFailed and TraceNotes come from the
	// workload's probes and its serial traced run.
	PerLayer       metricSet `json:"per_layer,omitempty"`
	TraceAttempted int       `json:"trace_attempted,omitempty"`
	TraceFailed    int       `json:"trace_failed,omitempty"`
	TraceNotes     []string  `json:"trace_notes,omitempty"`
	// Ledger is each stage's share of client-observed ops request time
	// (of run time on sim-corpus), self times from the traced run.
	Ledger map[string]float64 `json:"ledger,omitempty"`
}

func (r *workloadResult) correct() bool {
	return (r.E2E == nil || r.E2E.Failed == 0) && r.TraceFailed == 0
}

// e2eFile is where a driver-mode run leaves its whole end-to-end result
// (sample counts, notes, the undeclared metrics), which the result line
// has no room for.
func e2eFile(cfg *config, w *workload) string {
	return filepath.Join(cfg.out, "e2e-"+w.Name+".json")
}

// runE2EFresh measures one workload of a set end to end. The library
// workload's process under test is the benchmark itself, which in a set
// has other workloads' oracles and traced stacks on its heap; it runs in
// a fresh adpmbench, exactly as the driver runs it, so its CPU and peak
// RSS are its own.
func runE2EFresh(cfg *config, w *workload) (*e2eResult, error) {
	if w.Stack != "library" || cfg.self == "" {
		return runE2E(cfg, w)
	}
	args := []string{"-workload", w.Name, "-trace", "0", "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds)}
	if cfg.short {
		args = append(args, "-short")
	}
	cmd := exec.Command(cfg.self, args...)
	cmd.Dir = cfg.root
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("fresh process: %w", err)
	}
	b, err := os.ReadFile(e2eFile(cfg, w))
	if err != nil {
		return nil, err
	}
	res := &e2eResult{}
	return res, json.Unmarshal(b, res)
}

// runE2E measures one workload end to end in this process.
func runE2E(cfg *config, w *workload) (*e2eResult, error) {
	if w.Stack == "library" {
		return runSimE2E(w, cfg.root, cfg.seed, cfg.short, cfg.warm(), cfg.measure())
	}
	return runServeE2E(cfg, w)
}

// runTraced runs the workload's probes and its serial traced run, and
// writes the trace.
func runTraced(cfg *config, w *workload, r *workloadResult) error {
	m := metricSet{}
	if err := runProbes(w, cfg.seed, cfg.short, m); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	var out *tracedOut
	var err error
	if w.Stack == "library" {
		out, err = runSimTraced(cfg.root, cfg.seed, cfg.short, m)
	} else {
		out, err = runServeTraced(cfg, w, m)
	}
	if err != nil {
		return err
	}
	r.PerLayer, r.Ledger = m, out.ledger
	r.TraceAttempted, r.TraceFailed, r.TraceNotes = out.attempted, out.failed, out.notes
	return writeSpans(filepath.Join(cfg.out, "trace-"+w.Name+".jsonl"), out.spans)
}

// runSet runs both phases of every workload once. reverse flips the
// workload order, which -repeat alternates.
func runSet(cfg *config, reverse bool) ([]workloadResult, error) {
	out := make([]workloadResult, 0, len(workloads))
	for i := range workloads {
		w := &workloads[i]
		if reverse {
			w = &workloads[len(workloads)-1-i]
		}
		r := workloadResult{Workload: w.Name, Why: w.Why, Seed: cfg.seed}
		var err error
		if r.E2E, err = runE2EFresh(cfg, w); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		if err := runTraced(cfg, w, &r); err != nil {
			return nil, fmt.Errorf("%s (traced): %w", w.Name, err)
		}
		printWorkload(os.Stdout, &r)
		out = append(out, r)
	}
	return out, nil
}

// contractLine is the last line of standard output in driver mode.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runContract runs one workload in one phase and prints the driver's
// result line last. The line carries every declared metric; a per-layer
// metric that belongs to another workload reads 0 there.
func runContract(cfg *config, w *workload, traced bool) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "adpmbench:", err)
		return 1
	}
	r := workloadResult{Workload: w.Name, Why: w.Why, Seed: cfg.seed}
	line := contractLine{Metrics: map[string]contractMetric{}}
	var defs []metricDef
	var got metricSet
	if traced {
		if err := runTraced(cfg, w, &r); err != nil {
			return fail(err)
		}
		defs, got = perLayer, r.PerLayer
		line.Attempted, line.Failed = r.TraceAttempted, r.TraceFailed
	} else {
		var err error
		if r.E2E, err = runE2E(cfg, w); err != nil {
			return fail(err)
		}
		if err := writeJSON(e2eFile(cfg, w), r.E2E); err != nil {
			return fail(err)
		}
		defs, got = endToEnd, r.E2E.Metrics
		line.Attempted, line.Failed = r.E2E.Attempted, r.E2E.Failed
	}
	printWorkload(os.Stdout, &r)
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok && d.on(w) {
			return fail(fmt.Errorf("%s produced no %s", w.Name, d.Name))
		}
		line.Metrics[d.Name] = contractMetric{Value: v.Value, Unit: d.Unit}
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	b, err := json.Marshal(&line)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%s\n", b)
	return 0
}
