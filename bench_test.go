package adpm

// Benchmark harness: one benchmark per figure of the paper's evaluation
// (Figs. 7-10), ablation benchmarks for the design choices DESIGN.md
// calls out, and micro-benchmarks of the engine substrates. The figure
// benchmarks report the paper's metrics (operations, evaluations, spins,
// their ratios) via b.ReportMetric, so `go test -bench` regenerates the
// evaluation numbers alongside timing.

import (
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/dcm"
	"repro/internal/dddl"
	"repro/internal/dpm"
	"repro/internal/figures"
	"repro/internal/scenario"
)

// benchRuns keeps figure benchmarks affordable; cmd/repro uses the
// paper's full 60 runs.
const benchRuns = 10

// BenchmarkFig7Profile regenerates the Fig. 7 per-operation profile
// (violations found and constraint evaluations per executed operation,
// conventional vs ADPM) on the simplified case.
func BenchmarkFig7Profile(b *testing.B) {
	b.ReportAllocs()
	var f *figures.Fig7Result
	for i := 0; i < b.N; i++ {
		var err error
		f, err = figures.Fig7("simplified", 3, 3000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(f.Conventional.Operations), "conv-ops")
	b.ReportMetric(float64(f.ADPM.Operations), "adpm-ops")
	b.ReportMetric(float64(f.Conventional.TotalViolations), "conv-violations")
	b.ReportMetric(float64(f.ADPM.TotalViolations), "adpm-violations")
}

// BenchmarkFig8Snapshot regenerates the Fig. 8 statistics window
// (violations, evaluations, spins over the run) for a receiver run.
func BenchmarkFig8Snapshot(b *testing.B) {
	b.ReportAllocs()
	var f *figures.Fig8Result
	for i := 0; i < b.N; i++ {
		var err error
		f, err = figures.Fig8(ModeADPM, 1, 3000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(f.Final.Operations), "ops")
	b.ReportMetric(float64(f.Final.Evaluations), "evals")
	b.ReportMetric(float64(f.Final.Spins), "spins")
}

// BenchmarkFig9aOperations regenerates Fig. 9(a): mean design operations
// (and their variability) per case and mode, plus the in-text spin
// ratio.
func BenchmarkFig9aOperations(b *testing.B) {
	b.ReportAllocs()
	for _, name := range []string{"sensor", "receiver"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			scn, err := scenario.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			var cmp *Comparison
			for i := 0; i < b.N; i++ {
				cmp, err = Compare(name, Config{Scenario: scn, Seed: 1, MaxOps: 3000}, benchRuns, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cmp.Conventional.Ops.Mean, "conv-ops")
			b.ReportMetric(cmp.ADPM.Ops.Mean, "adpm-ops")
			b.ReportMetric(cmp.OpsRatio(), "ops-ratio")
			b.ReportMetric(cmp.StdRatio(), "std-ratio")
			b.ReportMetric(100*cmp.SpinRatio(), "spin-pct")
		})
	}
}

// BenchmarkFig9bEvaluations regenerates Fig. 9(b): constraint
// evaluations — total and per operation — per case and mode.
func BenchmarkFig9bEvaluations(b *testing.B) {
	b.ReportAllocs()
	for _, name := range []string{"sensor", "receiver"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			scn, err := scenario.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			var cmp *Comparison
			for i := 0; i < b.N; i++ {
				cmp, err = Compare(name, Config{Scenario: scn, Seed: 1, MaxOps: 3000}, benchRuns, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cmp.Conventional.Evals.Mean, "conv-evals")
			b.ReportMetric(cmp.ADPM.Evals.Mean, "adpm-evals")
			b.ReportMetric(cmp.EvalPenaltyTotal(), "penalty-total")
			b.ReportMetric(cmp.EvalPenaltyPerOp(), "penalty-perop")
		})
	}
}

// BenchmarkFig10TightnessSweep regenerates Fig. 10: design operations vs
// the receiver's gain-requirement tightness.
func BenchmarkFig10TightnessSweep(b *testing.B) {
	b.ReportAllocs()
	var f *figures.Fig10Result
	for i := 0; i < b.N; i++ {
		var err error
		f, err = figures.Fig10(figures.Options{Runs: 5, Seed: 1, MaxOps: 3000})
		if err != nil {
			b.Fatal(err)
		}
	}
	conv, adpm := f.VariationRange()
	b.ReportMetric(conv, "conv-variation")
	b.ReportMetric(adpm, "adpm-variation")
}

// ---------------------------------------------------------------------
// Ablation benchmarks (DESIGN.md §4)
// ---------------------------------------------------------------------

// BenchmarkAblationHeuristics disables one designer heuristic at a time
// and reports ADPM operations on the receiver — quantifying each
// heuristic's contribution.
func BenchmarkAblationHeuristics(b *testing.B) {
	b.ReportAllocs()
	variants := []struct {
		name   string
		mutate func(*Heuristics)
	}{
		{"full", func(h *Heuristics) {}},
		{"no-smallest-subspace", func(h *Heuristics) { h.SmallestSubspace = false }},
		{"no-alpha", func(h *Heuristics) { h.AlphaGuided = false }},
		{"no-beta", func(h *Heuristics) { h.BetaGuided = false }},
		{"no-monotone-voting", func(h *Heuristics) { h.MonotoneVoting = false }},
		{"no-feasible-choice", func(h *Heuristics) { h.FeasibleChoice = false }},
		{"no-tabu", func(h *Heuristics) { h.TabuHistory = false }},
		{"margin-steps", func(h *Heuristics) { h.MarginSteps = true }},
		{"no-coordinated-fix", func(h *Heuristics) { h.CoordinatedFix = false }},
		{"all-off", func(h *Heuristics) { *h = Heuristics{} }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			h := DefaultHeuristics()
			v.mutate(&h)
			var m *MultiResult
			for i := 0; i < b.N; i++ {
				var err error
				m, err = RunMany(Config{
					Scenario: Receiver(), Mode: ModeADPM, Seed: 1,
					MaxOps: 3000, Heuristics: &h,
				}, benchRuns, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(m.Ops.Mean, "ops")
			b.ReportMetric(m.CompletionRate(), "completion")
		})
	}
}

// BenchmarkAblationPropagationDepth compares status-only constraint
// checking (MaxVisits=1, no fixpoint) against the full AC-3/HC4
// fixpoint, on ADPM receiver runs.
func BenchmarkAblationPropagationDepth(b *testing.B) {
	b.ReportAllocs()
	for _, v := range []struct {
		name string
		opts constraint.PropagateOptions
	}{
		{"single-pass", constraint.PropagateOptions{MaxVisits: 1, MaxRevisions: 100}},
		{"full-fixpoint", constraint.PropagateOptions{}},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			var m *MultiResult
			for i := 0; i < b.N; i++ {
				var err error
				m, err = RunMany(Config{
					Scenario: Receiver(), Mode: ModeADPM, Seed: 1,
					MaxOps: 3000, PropOpts: v.opts,
				}, benchRuns, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(m.Ops.Mean, "ops")
			b.ReportMetric(m.Evals.Mean, "evals")
			b.ReportMetric(m.CompletionRate(), "completion")
		})
	}
}

// BenchmarkAblationEngines compares the deterministic event loop with
// the concurrent goroutine-per-designer engine on identical workloads.
func BenchmarkAblationEngines(b *testing.B) {
	b.ReportAllocs()
	cfg := Config{Scenario: Sensor(), Mode: ModeADPM, MaxOps: 3000}
	b.Run("deterministic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg.Seed = int64(i)
			if _, err := Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("concurrent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg.Seed = int64(i)
			if _, err := RunConcurrent(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------
// Engine micro-benchmarks
// ---------------------------------------------------------------------

// BenchmarkPropagate measures one full propagation over the receiver
// network with requirements bound.
func BenchmarkPropagate(b *testing.B) {
	b.ReportAllocs()
	net, err := Receiver().BuildNetwork()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ResetFeasible()
		net.Propagate(constraint.PropagateOptions{})
	}
}

// BenchmarkMovementWindow measures the per-variable exploration that
// dominates ADPM's evaluation cost.
func BenchmarkMovementWindow(b *testing.B) {
	b.ReportAllocs()
	proc, err := NewProcess(Receiver(), ModeADPM)
	if err != nil {
		b.Fatal(err)
	}
	for prop, val := range map[string]float64{
		"Diff_pair_W": 4, "Freq_ind": 0.25, "Bias_I": 9,
	} {
		if err := proc.Net.BindReal(prop, val); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proc.MovementWindow("Diff_pair_W")
	}
}

// BenchmarkBuildView measures the DCM's heuristic-data mining step: the
// receiver's circuit designer, in both modes, on the initial state and
// halfway through a corpus history (receiver, seed 1), where bindings
// and known violations make the view do its full work. Conventional
// views dominate the corpus's run time.
func BenchmarkBuildView(b *testing.B) {
	for _, mode := range []dpm.Mode{ModeConventional, ModeADPM} {
		res, err := Run(Config{Scenario: Receiver(), Mode: mode, Seed: 1, MaxOps: 3000})
		if err != nil {
			b.Fatal(err)
		}
		hist := res.Process.History()
		for _, stage := range []struct {
			name string
			ops  int
		}{{"stage0", 0}, {"midrun", len(hist) / 2}} {
			b.Run(mode.String()+"/"+stage.name, func(b *testing.B) {
				b.ReportAllocs()
				proc, err := NewProcess(Receiver(), mode)
				if err != nil {
					b.Fatal(err)
				}
				for _, tr := range hist[:stage.ops] {
					if _, err := proc.Apply(tr.Op); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dcm.BuildView(proc, "circuit")
				}
			})
		}
	}
}

// BenchmarkRunSimplified measures a whole simulated design process.
func BenchmarkRunSimplified(b *testing.B) {
	b.ReportAllocs()
	for _, mode := range []struct {
		name string
		m    dpm.Mode
	}{{"conventional", ModeConventional}, {"adpm", ModeADPM}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			scn := Simplified()
			for i := 0; i < b.N; i++ {
				if _, err := Run(Config{Scenario: scn, Mode: mode.m, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDDDLParse measures scenario parsing and validation.
func BenchmarkDDDLParse(b *testing.B) {
	b.ReportAllocs()
	src := scenario.ReceiverSource(48)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := dddl.Parse(strings.NewReader(src)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConstraintParse measures constraint-expression parsing.
func BenchmarkConstraintParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := constraint.ParseConstraint("bench",
			"30 * Diff_pair_W * Freq_ind * sqrt(Bias_I) + 1.5 * Mixer_gm * sqrt(Bias_I) - 60 * Gap / (Beam_width * sqrt(Drive_V)) >= MinGain"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolver measures the branch-and-prune satisfiability search
// over each built-in scenario.
func BenchmarkSolver(b *testing.B) {
	b.ReportAllocs()
	for _, name := range scenario.Names() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			scn, _ := scenario.ByName(name)
			var nodes int
			for i := 0; i < b.N; i++ {
				res, err := SolveScenario(scn, SolverOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Satisfiable {
					b.Fatal("scenario became unsatisfiable")
				}
				nodes = res.Nodes
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// BenchmarkVerifyScenariosComplete is a guard benchmark: a single seed
// of every scenario in every mode must still complete.
func BenchmarkVerifyScenariosComplete(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, name := range scenario.Names() {
			scn, _ := scenario.ByName(name)
			for _, mode := range []dpm.Mode{ModeConventional, ModeADPM} {
				r, err := Run(Config{Scenario: scn, Mode: mode, Seed: 11, MaxOps: 3000})
				if err != nil {
					b.Fatal(err)
				}
				if !r.Completed {
					b.Fatalf("%s/%s seed 11 did not complete", name, mode)
				}
			}
		}
	}
}

// BenchmarkOptimizer measures branch-and-bound minimization of the
// receiver's power under all specs.
func BenchmarkOptimizer(b *testing.B) {
	b.ReportAllocs()
	var obj float64
	for i := 0; i < b.N; i++ {
		res, err := MinimizeScenario(Receiver(), "System_power", SolverOptions{MaxNodes: 2000})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Feasible {
			b.Fatal("infeasible")
		}
		obj = res.Objective
	}
	b.ReportMetric(obj, "best-power-mW")
}
