package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/dddl"
	"repro/internal/dpm"
	"repro/internal/scenario"
	"repro/internal/teamsim"
	"repro/internal/trace"
)

// sim-corpus: the paper's own experiment. One goroutine cycles the 64
// configurations of testdata/differential_seed.json (simplified and
// receiver x conventional and ADPM x 16 seeds) through teamsim.Run.
//
// The corpus is the same for every workload seed; the seed shuffles the
// order a cycle visits it in, and only whole cycles are measured.
// Offsetting the 16 TeamSim seeds by the workload seed instead moves
// ops_per_s by 9% and ops_p50_ms by 7% between neighbouring seeds (one
// 130ms run enters or leaves the window), which is the size of the
// regression bounds. A fixed corpus also lets every seed, not only seed
// 1, be checked against the golden records.

// corpusMaxOps is the operation budget the golden corpus was pinned at.
const corpusMaxOps = 3000

// shortCorpus is how many configurations the smoke test runs.
const shortCorpus = 8

// goldenRecord is one row of testdata/differential_seed.json.
type goldenRecord struct {
	Scenario    string `json:"scenario"`
	Mode        string `json:"mode"`
	Seed        int64  `json:"seed"`
	Operations  int    `json:"operations"`
	Evaluations int64  `json:"evaluations"`
	Spins       int    `json:"spins"`
	Completed   bool   `json:"completed"`
}

// simConfig is one corpus configuration ready to run.
type simConfig struct {
	golden goldenRecord
	scn    *dddl.Scenario
	mode   dpm.Mode
}

// simOutcome is what a run must reproduce exactly.
type simOutcome struct {
	ops       int
	evals     int64
	spins     int
	completed bool
}

// simSetup loads the corpus in the order the workload seed gives it.
func simSetup(root string, seed int64) ([]simConfig, error) {
	b, err := os.ReadFile(filepath.Join(root, "testdata", "differential_seed.json"))
	if err != nil {
		return nil, err
	}
	var recs []goldenRecord
	if err := json.Unmarshal(b, &recs); err != nil {
		return nil, fmt.Errorf("differential_seed.json: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("differential_seed.json holds no records")
	}
	scns := map[string]*dddl.Scenario{}
	out := make([]simConfig, len(recs))
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(recs)) {
		r := recs[j]
		scn := scns[r.Scenario]
		if scn == nil {
			if scn, err = scenario.ByName(r.Scenario); err != nil {
				return nil, err
			}
			scns[r.Scenario] = scn
		}
		mode := dpm.Conventional
		if r.Mode == dpm.ADPM.String() {
			mode = dpm.ADPM
		}
		out[i] = simConfig{golden: r, scn: scn, mode: mode}
	}
	return out, nil
}

// run executes the configuration once.
func (c *simConfig) run(rec *trace.Recorder) (simOutcome, time.Duration, error) {
	t0 := time.Now()
	res, err := teamsim.Run(teamsim.Config{Scenario: c.scn, Mode: c.mode, Seed: c.golden.Seed,
		MaxOps: corpusMaxOps, Tracer: rec})
	wall := time.Since(t0)
	if err != nil {
		return simOutcome{}, wall, err
	}
	return simOutcome{res.Operations, res.Evaluations, res.Spins, res.Completed}, wall, nil
}

// correct reports whether a run reproduced its golden record, which
// also makes every cycle reproduce the first.
func (c *simConfig) correct(got simOutcome) bool {
	g := c.golden
	return got == simOutcome{g.Operations, g.Evaluations, g.Spins, g.Completed}
}

// runSimE2E measures whole corpus cycles until measure has passed,
// after warming up for at least one cycle. The process under test is
// this one: CPU and peak RSS are its own.
func runSimE2E(w *workload, root string, seed int64, short bool, warm, measure time.Duration) (*e2eResult, error) {
	var cfgs []simConfig
	setup, _, err := medianSetup(short, func() (func(), error) {
		var err error
		cfgs, err = simSetup(root, seed)
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	if short {
		cfgs = cfgs[:shortCorpus]
	}
	res := &e2eResult{Metrics: metricSet{}, Extra: metricSet{}, Valid: true}
	perOp := make([][]float64, len(cfgs)) // per configuration, one value per cycle
	var runMs, cycleRate []float64
	wrong := make([]bool, len(cfgs)) // configurations with a run that missed its golden record
	limitMs := w.Limit.Seconds() * 1e3
	var t0 time.Time
	// cycle runs the corpus once; measured cycles record their runs.
	cycle := func(measured bool) error {
		for i := range cfgs {
			c := &cfgs[i]
			got, wall, err := c.run(nil)
			if err != nil {
				return err
			}
			res.Attempted++
			if !c.correct(got) {
				res.Failed++ // a wrong answer counts whenever it happens
				wrong[i] = true
			}
			if !measured {
				continue
			}
			res.Ops += got.ops
			lat := wall.Seconds() * 1e3 / float64(max(got.ops, 1))
			perOp[i] = append(perOp[i], lat)
			runMs = append(runMs, wall.Seconds()*1e3)
		}
		return nil
	}
	for warmEnd := time.Now().Add(warm); ; {
		if err := cycle(false); err != nil {
			return nil, err
		}
		if !time.Now().Before(warmEnd) {
			break
		}
	}
	var cpu0 time.Duration
	cpu0, t0 = selfCPU(), time.Now()
	for end := t0.Add(measure); ; {
		ops0, c0 := res.Ops, time.Now()
		if err := cycle(true); err != nil {
			return nil, err
		}
		cycleRate = append(cycleRate, float64(res.Ops-ops0)/time.Since(c0).Seconds())
		if !time.Now().Before(end) {
			break
		}
	}
	cpu := selfCPU() - cpu0
	// A configuration's time per op is its median over the cycles, which
	// leaves the box's stalls out; the quantiles are taken over the
	// configurations, and their sample count is the configurations'.
	perCfg, n := make([]float64, len(perOp)), len(perOp)
	// The limit is judged the same way: one stalled 1-op run is the
	// box's, a configuration whose median run takes more than the limit
	// per operation is the engine's.
	within := 0
	for i := range perOp {
		perCfg[i] = median(perOp[i])
		if !wrong[i] && perCfg[i] <= limitMs {
			within++
		}
	}
	sort.Float64s(perCfg)
	p50, p95 := quantile(perCfg, 0.50), quantile(perCfg, 0.95)
	res.Metrics.set(endToEnd, "setup_s", setup.Seconds(), 0)
	// Every cycle is the same work, so the median cycle's rate is the
	// run's rate with the box's stalls left out.
	res.Metrics.set(endToEnd, "ops_per_s", median(cycleRate), len(cycleRate))
	res.Metrics.set(endToEnd, "ops_p50_ms", p50, n)
	res.Metrics.set(endToEnd, "ops_p95_ms", p95, n)
	res.Extra["ops_p99_ms"] = Metric{Value: quantile(perCfg, 0.99), Unit: "ms", N: n}
	res.Metrics.set(endToEnd, "slo_ok_frac", float64(within)/float64(n), n)
	res.Metrics.set(endToEnd, "cpu_ms_per_op", cpu.Seconds()*1e3/float64(res.Ops), 0)
	res.Metrics.set(endToEnd, "rss_peak_mb", float64(vmHWMkB("self"))/1024, 0)
	res.Extra["run_p50_ms"] = Metric{Value: median(runMs), Unit: "ms", N: len(runMs)}
	return res, nil
}

// runSimTraced runs one corpus cycle untraced and one traced and
// derives the per-layer numbers only this workload produces.
func runSimTraced(root string, seed int64, short bool, m metricSet) (*tracedOut, error) {
	out := &tracedOut{}
	cfgs, err := simSetup(root, seed)
	if err != nil {
		return nil, err
	}
	if short {
		cfgs = cfgs[:shortCorpus]
	}
	var untraced, traced time.Duration
	var runMs []float64
	for i := range cfgs {
		got, wall, err := cfgs[i].run(nil)
		if err != nil {
			return nil, err
		}
		out.attempted++
		if !cfgs[i].correct(got) {
			out.failed++
		}
		untraced += wall
		runMs = append(runMs, wall.Seconds()*1e3)
	}
	rec := newSpanRec()
	var ops trace.Counters
	for i := range cfgs {
		tr := trace.New(trace.Options{})
		t0 := time.Now()
		got, wall, err := cfgs[i].run(tr)
		if err != nil {
			return nil, err
		}
		rec.add(spanSimRun, t0, time.Now()) // around the call, so that every event of the run falls inside
		out.attempted++
		if !cfgs[i].correct(got) {
			out.failed++
		}
		traced += wall
		c := tr.Counters()
		ops.OperationNanos += c.OperationNanos
		ops.PropagateNanos += c.PropagateNanos
		ops.WindowRefreshNanos += c.WindowRefreshNanos
		rec.addEngineEvents(tr)
		_ = tr.Close()
	}
	m.set(perLayer, "loadgen.run_p50_ms", median(runMs), len(runMs))
	wall := float64(traced.Nanoseconds())
	m.set(perLayer, "teamsim.designer_share", 1-float64(ops.OperationNanos)/wall, 0)
	m.set(perLayer, "trace.overhead_frac", float64(traced-untraced)/float64(untraced), 0)
	// The recorder's counters are exact; its ring, which the spans come
	// from, keeps only the last 16384 events of a long run.
	m.set(perLayer, "trace.apply_share", float64(ops.OperationNanos)/wall, 0)
	out.ledger = map[string]float64{
		spanSimRun:        1 - float64(ops.OperationNanos)/wall,
		spanApply:         float64(ops.OperationNanos-ops.PropagateNanos-ops.WindowRefreshNanos) / wall,
		spanPropagate:     float64(ops.PropagateNanos) / wall,
		spanWindowRefresh: float64(ops.WindowRefreshNanos) / wall,
	}
	out.spans = resolveSpans(rec.spans, spanSimRun)
	for what, n := range misnested(out.spans) {
		out.notes = append(out.notes, fmt.Sprintf("%d spans misnested: %s", n, what))
		out.failed += n
	}
	return out, nil
}
