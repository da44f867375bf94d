package teamsim

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/dpm"
	"repro/internal/stats"
)

// MultiResult aggregates many seeded runs of one configuration — the
// paper's evaluation executes "over 60 simulations ... varying the
// value of the random seed" per case and mode (§3.2).
type MultiResult struct {
	// Results holds the per-seed results, in seed order.
	Results []*Result
	// Ops summarizes the number of executed operations (Fig. 9a).
	Ops stats.Summary
	// Evals summarizes total constraint evaluations (Fig. 9b).
	Evals stats.Summary
	// EvalsPerOp summarizes the per-operation evaluation averages
	// (Fig. 9b's second bar group).
	EvalsPerOp stats.Summary
	// Spins summarizes design spins per run.
	Spins stats.Summary
	// Completed counts runs reaching the termination condition.
	Completed int
}

// RunMany executes runs simulations with seeds cfg.Seed, cfg.Seed+1, …
// using up to parallelism goroutines (0 = GOMAXPROCS). The per-seed
// engines are fully independent, so the fan-out is embarrassingly
// parallel; results are returned in deterministic seed order.
func RunMany(cfg Config, runs, parallelism int) (*MultiResult, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("teamsim: runs must be positive")
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > runs {
		parallelism = runs
	}

	results := make([]*Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	sem := make(chan struct{}, parallelism)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c := cfg
			c.Seed = cfg.Seed + int64(i)
			c.Trace = nil  // traces interleave nondeterministically
			c.Tracer = nil // a shared recorder would mix runs
			results[i], errs[i] = Run(c)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return Aggregate(results), nil
}

// Aggregate summarizes a result set.
func Aggregate(results []*Result) *MultiResult {
	m := &MultiResult{Results: results}
	var ops, spins []int
	var evals []int64
	var epo []float64
	for _, r := range results {
		ops = append(ops, r.Operations)
		evals = append(evals, r.Evaluations)
		spins = append(spins, r.Spins)
		epo = append(epo, r.EvalsPerOpMean())
		if r.Completed {
			m.Completed++
		}
	}
	m.Ops = stats.SummarizeInts(ops)
	m.Evals = stats.SummarizeInt64s(evals)
	m.Spins = stats.SummarizeInts(spins)
	m.EvalsPerOp = stats.Summarize(epo)
	return m
}

// OpsSamples returns the per-run operation counts as floats (for
// bootstrap statistics).
func (m *MultiResult) OpsSamples() []float64 {
	out := make([]float64, len(m.Results))
	for i, r := range m.Results {
		out[i] = float64(r.Operations)
	}
	return out
}

// SpinsSamples returns the per-run spin counts as floats.
func (m *MultiResult) SpinsSamples() []float64 {
	out := make([]float64, len(m.Results))
	for i, r := range m.Results {
		out[i] = float64(r.Spins)
	}
	return out
}

// OpsRatioCI bootstraps a confidence interval for the conventional/ADPM
// operations ratio.
func (c *Comparison) OpsRatioCI(level float64) stats.CI {
	return stats.BootstrapRatioCI(c.Conventional.OpsSamples(), c.ADPM.OpsSamples(), level, 2000, 1)
}

// SpinRatioCI bootstraps a confidence interval for the ADPM/conventional
// spin ratio.
func (c *Comparison) SpinRatioCI(level float64) stats.CI {
	return stats.BootstrapRatioCI(c.ADPM.SpinsSamples(), c.Conventional.SpinsSamples(), level, 2000, 2)
}

// OpsWelchT returns Welch's t statistic for the difference in mean
// operations between the modes.
func (c *Comparison) OpsWelchT() (t, df float64) {
	return stats.WelchT(c.Conventional.OpsSamples(), c.ADPM.OpsSamples())
}

// CompletionRate returns the fraction of runs that completed.
func (m *MultiResult) CompletionRate() float64 {
	if len(m.Results) == 0 {
		return 0
	}
	return float64(m.Completed) / float64(len(m.Results))
}

// Comparison holds the conventional-vs-ADPM aggregates for one design
// case, the unit of Fig. 9.
type Comparison struct {
	Case         string
	Conventional *MultiResult
	ADPM         *MultiResult
}

// OpsRatio returns conventional mean operations / ADPM mean operations
// (the paper reports "at least twice as many operations ... using the
// conventional approach").
func (c *Comparison) OpsRatio() float64 {
	if c.ADPM.Ops.Mean == 0 {
		return 0
	}
	return c.Conventional.Ops.Mean / c.ADPM.Ops.Mean
}

// StdRatio returns conventional std / ADPM std of operations (the paper
// reports ADPM "at least 3 times less variable").
func (c *Comparison) StdRatio() float64 {
	if c.ADPM.Ops.Std == 0 {
		return 0
	}
	return c.Conventional.Ops.Std / c.ADPM.Ops.Std
}

// SpinRatio returns ADPM mean spins / conventional mean spins (the
// paper reports ADPM spins were 7% of conventional).
func (c *Comparison) SpinRatio() float64 {
	if c.Conventional.Spins.Mean == 0 {
		return 0
	}
	return c.ADPM.Spins.Mean / c.Conventional.Spins.Mean
}

// EvalPenaltyTotal returns ADPM mean total evaluations / conventional
// mean total evaluations (Fig. 9b, total bars).
func (c *Comparison) EvalPenaltyTotal() float64 {
	if c.Conventional.Evals.Mean == 0 {
		return 0
	}
	return c.ADPM.Evals.Mean / c.Conventional.Evals.Mean
}

// EvalPenaltyPerOp returns the per-operation evaluation penalty ratio
// (Fig. 9b, per-op bars; the paper notes it exceeds the total penalty).
func (c *Comparison) EvalPenaltyPerOp() float64 {
	if c.Conventional.EvalsPerOp.Mean == 0 {
		return 0
	}
	return c.ADPM.EvalsPerOp.Mean / c.Conventional.EvalsPerOp.Mean
}

// Compare runs both modes over the same seed block and aggregates.
func Compare(name string, cfg Config, runs, parallelism int) (*Comparison, error) {
	conv := cfg
	conv.Mode = dpm.Conventional
	convRes, err := RunMany(conv, runs, parallelism)
	if err != nil {
		return nil, fmt.Errorf("teamsim: conventional runs: %w", err)
	}
	adpm := cfg
	adpm.Mode = dpm.ADPM
	adpmRes, err := RunMany(adpm, runs, parallelism)
	if err != nil {
		return nil, fmt.Errorf("teamsim: ADPM runs: %w", err)
	}
	return &Comparison{Case: name, Conventional: convRes, ADPM: adpmRes}, nil
}
