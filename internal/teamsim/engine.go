// Package teamsim implements the design process evaluation environment
// of paper §3.1 (Fig. 5): simulated designers request operations against
// the DPM, statistics are captured per executed operation, and a run
// terminates when the top-level problem is solved, every output has a
// value, and no constraint is violated (§3.1.2).
//
// Two engines are provided: a deterministic seeded event loop (Run),
// used for all reproducible experiments, and a concurrent client/server
// engine (RunConcurrent) mirroring Minerva III's distributed
// architecture, with one goroutine per designer exchanging messages
// with a DPM server goroutine.
package teamsim

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/constraint"
	"repro/internal/dcm"
	"repro/internal/dddl"
	"repro/internal/designer"
	"repro/internal/dpm"
	"repro/internal/notify"
	"repro/internal/trace"
)

// DefaultMaxOps is the operation budget used when Config.MaxOps is 0,
// shared by Run and RunConcurrent.
const DefaultMaxOps = 5000

// Config parameterizes one simulation run.
type Config struct {
	// Scenario is the parsed DDDL problem scenario.
	Scenario *dddl.Scenario
	// Mode selects conventional (λ=F) or ADPM (λ=T) transitions.
	Mode dpm.Mode
	// Seed drives all stochastic designer choices.
	Seed int64
	// MaxOps caps the number of executed operations; 0 means 5000.
	MaxOps int
	// Heuristics toggles the designers' search heuristics; the zero
	// value means DefaultHeuristics.
	Heuristics *designer.Heuristics
	// DeltaFrac sizes conventional fix steps (0 → 0.01, the paper's
	// "around 100 times smaller than E_i").
	DeltaFrac float64
	// PropOpts tunes ADPM propagation.
	PropOpts constraint.PropagateOptions
	// Trace, when non-nil, receives a line per executed operation.
	Trace io.Writer
	// Tracer, when non-nil, receives structured trace events for the
	// whole run: run-start/run-end, one event per operation, propagate
	// and window-refresh summaries, notification deliveries, and
	// idle/wake cycles. See internal/trace.
	Tracer *trace.Recorder
}

// maxOps resolves the configured operation budget.
func (c Config) maxOps() int {
	if c.MaxOps <= 0 {
		return DefaultMaxOps
	}
	return c.MaxOps
}

// Result captures one simulation run's statistics (§3.1.2).
type Result struct {
	// Mode echoes the configured mode.
	Mode dpm.Mode
	// Seed echoes the configured seed.
	Seed int64
	// Completed is true when the termination condition was reached.
	Completed bool
	// Deadlocked is true when every designer went idle before
	// completion (a scenario or heuristic defect).
	Deadlocked bool
	// Operations is N_O, the total number of executed operations.
	Operations int
	// Evaluations is the total number of constraint evaluations
	// (the paper's CAD-resource consumption proxy).
	Evaluations int64
	// Spins counts operations motivated by cross-subsystem violations.
	Spins int
	// NewViolationsPerOp[i] is the number of violations found upon
	// executed operation i (Fig. 7a).
	NewViolationsPerOp []int
	// EvalsPerOp[i] is the number of constraint evaluations due to
	// operation i (Fig. 7b).
	EvalsPerOp []int64
	// OpenViolationsPerOp[i] is the number of violations outstanding
	// after operation i (Fig. 8's violations trace).
	OpenViolationsPerOp []int
	// SpinPerOp[i] is true when operation i was a design spin (Fig. 8's
	// cumulative spin trace).
	SpinPerOp []bool
	// Notifications counts NM deliveries to designers.
	Notifications int
	// FinalValues holds the bound value of every numeric property at
	// termination.
	FinalValues map[string]float64
	// Process is the final design process state: constraint network,
	// problem hierarchy, and the full operation history H_n. Useful for
	// post-simulation inspection (browsers, history analysis).
	Process *dpm.DPM
}

// EvalsPerOpMean returns N_E, the average number of evaluations per
// executed operation (N_T = N_E × N_O, §3.1.2).
func (r *Result) EvalsPerOpMean() float64 {
	if r.Operations == 0 {
		return 0
	}
	return float64(r.Evaluations) / float64(r.Operations)
}

// Run executes one deterministic simulation.
func Run(cfg Config) (*Result, error) {
	if cfg.Scenario == nil {
		return nil, fmt.Errorf("teamsim: Config.Scenario is required")
	}
	maxOps := cfg.maxOps()
	sess, err := NewSession(cfg.Scenario, cfg.Mode, maxOps, cfg.PropOpts)
	if err != nil {
		return nil, err
	}
	d, bus := sess.D, sess.Bus

	master := rand.New(rand.NewSource(cfg.Seed))
	team, err := buildTeam(cfg, d, master)
	if err != nil {
		return nil, err
	}

	rec := cfg.Tracer
	d.SetTracer(rec)
	bus.SetTracer(rec)
	if rec.Enabled() {
		rec.Emit(trace.Event{Kind: trace.KindRunStart,
			Scenario: cfg.Scenario.Name, Mode: cfg.Mode.String(), Seed: cfg.Seed})
	}

	res := &Result{Mode: cfg.Mode, Seed: cfg.Seed}
	order := make([]int, len(team))
	for i := range order {
		order[i] = i
	}

	for res.Operations < maxOps && !d.Done() {
		// Designers act independently; the loop visits them in a
		// seed-shuffled order each round.
		master.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		acted := false
		for _, idx := range order {
			if res.Operations >= maxOps || d.Done() {
				break
			}
			ds := team[idx]
			bus.Drain(ds.ID()) // consume pending notifications
			view := dcm.BuildView(d, ds.ID())
			op := ds.SelectOperation(view)
			if op == nil {
				// Round-level idleness; per-designer events only at full
				// detail (every idle designer re-idles each round).
				if rec.FullDetail() {
					rec.Emit(trace.Event{Kind: trace.KindIdle, Stage: d.Stage(), Designer: ds.ID()})
				}
				continue
			}
			tr, err := d.Apply(*op)
			if err != nil {
				return nil, fmt.Errorf("teamsim: applying %v: %w", op, err)
			}
			ds.ObserveTransition(tr)
			recordTransition(res, tr)
			publishTransition(bus, res, tr)
			if cfg.Trace != nil {
				fmt.Fprintf(cfg.Trace, "op %4d: %s | new-violations=%d evals=%d\n",
					tr.Stage, tr.Op.String(), len(tr.NewViolations), tr.Evaluations)
			}
			acted = true
		}
		if !acted {
			res.Deadlocked = true
			break
		}
	}
	finishResult(res, d)
	emitRunEnd(rec, res)
	return res, nil
}

// emitRunEnd closes a traced run with the final Result metrics; the
// validator and the differential test reconcile the summed per-event
// counters against exactly these numbers.
func emitRunEnd(rec *trace.Recorder, res *Result) {
	if !rec.Enabled() {
		return
	}
	rec.Emit(trace.Event{
		Kind:          trace.KindRunEnd,
		Mode:          res.Mode.String(),
		Seed:          res.Seed,
		Completed:     res.Completed,
		Deadlocked:    res.Deadlocked,
		Operations:    res.Operations,
		Evaluations:   res.Evaluations,
		Spins:         res.Spins,
		Notifications: res.Notifications,
	})
}

// DisabledHeuristics returns a heuristic set with every toggle off —
// designers degrade to random search. Used by ablation experiments.
func DisabledHeuristics() designer.Heuristics { return designer.Heuristics{} }

// buildTeam creates one simulated designer per problem owner.
func buildTeam(cfg Config, d *dpm.DPM, master *rand.Rand) ([]*designer.Designer, error) {
	owners := cfg.Scenario.Owners()
	if len(owners) == 0 {
		return nil, fmt.Errorf("teamsim: scenario declares no problem owners")
	}
	h := designer.DefaultHeuristics()
	if cfg.Heuristics != nil {
		h = *cfg.Heuristics
	}
	team := make([]*designer.Designer, len(owners))
	for i, o := range owners {
		ds, err := designer.New(designer.Config{
			ID:         o,
			Heuristics: h,
			DeltaFrac:  cfg.DeltaFrac,
			Rand:       rand.New(rand.NewSource(master.Int63())),
		})
		if err != nil {
			return nil, fmt.Errorf("teamsim: designer %q: %w", o, err)
		}
		team[i] = ds
	}
	return team, nil
}

func recordTransition(res *Result, tr *dpm.Transition) {
	res.Operations++
	res.Evaluations += tr.Evaluations
	if tr.IsSpin {
		res.Spins++
	}
	res.NewViolationsPerOp = append(res.NewViolationsPerOp, len(tr.NewViolations))
	res.EvalsPerOp = append(res.EvalsPerOp, tr.Evaluations)
	res.OpenViolationsPerOp = append(res.OpenViolationsPerOp, len(tr.ViolationsAfter))
	res.SpinPerOp = append(res.SpinPerOp, tr.IsSpin)
}

func publishTransition(bus *notify.Bus, res *Result, tr *dpm.Transition) []notify.Event {
	events := notify.DiffEvents(tr.Stage, tr.ViolationsBefore, tr.ViolationsAfter, tr.Narrowed, tr.Emptied)
	for _, e := range events {
		res.Notifications += bus.Publish(e)
	}
	return events
}

func finishResult(res *Result, d *dpm.DPM) {
	res.Completed = d.Done()
	res.Process = d
	res.FinalValues = map[string]float64{}
	for _, p := range d.Net.Properties() {
		if v, ok := p.Value(); ok && !v.IsString() {
			res.FinalValues[p.Name] = v.Num()
		}
	}
}
