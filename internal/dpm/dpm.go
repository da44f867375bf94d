package dpm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/constraint"
	"repro/internal/dddl"
	"repro/internal/domain"
	"repro/internal/expr"
	"repro/internal/trace"
)

// Mode selects the transition model of Fig. 1.
type Mode int

// Modes.
const (
	// Conventional (λ=F): constraint propagation is not run; designers
	// learn of violations only by requesting verification operations.
	Conventional Mode = iota
	// ADPM (λ=T): the DCM runs constraint propagation after every
	// operation and heuristic support data is refreshed.
	ADPM
)

// String names the mode.
func (m Mode) String() string {
	if m == ADPM {
		return "ADPM"
	}
	return "conventional"
}

// DPM is the design process manager: it owns the design state (problem
// hierarchy + constraint network), implements the next-state function δ,
// and keeps the design process history H_n.
type DPM struct {
	// Mode selects conventional or ADPM transitions.
	Mode Mode
	// Net is the network of constraints C_n of the current state.
	Net *constraint.Network
	// PropOpts tunes ADPM constraint propagation.
	PropOpts constraint.PropagateOptions

	problems  map[string]*Problem
	probOrder []string
	history   []*Transition
	stage     int
	// derived holds derived-property definitions in dependency order;
	// the DPM recomputes affected ones after each operation (a
	// synthesis-tool run per recomputation, counted as an evaluation).
	derived    []derivedDef
	derivedSet map[string]bool
	// scratches holds per-worker scratch networks for movement-window
	// exploration, reused across operations via Network.CloneInto so
	// the per-variable deep clone disappears from the hot loop. Slot w
	// belongs to refresh worker w; slot 0 doubles as the scratch of
	// the sequential MovementWindow path. Like the rest of the DPM,
	// these are not safe for concurrent use of one DPM.
	scratches []*constraint.Network
	// outputs caches windowOutputs.
	outputs []*constraint.Property
	// refresh is refreshMovementWindows' reusable workspace.
	refresh windowRefresh
	// tracer, when non-nil, receives operation and window-refresh
	// events. SetTracer also attaches it to Net for propagate events;
	// scratch networks never carry it (Network.CloneInto drops it).
	tracer *trace.Recorder
}

// windowRefresh is one DPM's movement-window refresh workspace, reused
// across operations: the outputs selected for this refresh, their
// windows and evaluation counts by job index, and the job counter and
// wait group of the workers that fill them.
type windowRefresh struct {
	jobs  []*constraint.Property
	wins  []domain.Domain
	evals []int64
	next  atomic.Int64
	wg    sync.WaitGroup
}

// derivedDef is one derived performance property: value = node(args).
type derivedDef struct {
	prop string
	node expr.Node
	args []string
}

// New creates a DPM over an existing network and problem set.
func New(net *constraint.Network, problems []*Problem, mode Mode) (*DPM, error) {
	d := &DPM{
		Mode:       mode,
		Net:        net,
		problems:   map[string]*Problem{},
		derivedSet: map[string]bool{},
	}
	for _, p := range problems {
		if _, dup := d.problems[p.Name]; dup {
			return nil, fmt.Errorf("dpm: duplicate problem %q", p.Name)
		}
		for _, prop := range append(append([]string(nil), p.Inputs...), p.Outputs...) {
			if net.Property(prop) == nil {
				return nil, fmt.Errorf("dpm: problem %q references unknown property %q", p.Name, prop)
			}
		}
		for _, cn := range p.Constraints {
			if net.Constraint(cn) == nil {
				return nil, fmt.Errorf("dpm: problem %q references unknown constraint %q", p.Name, cn)
			}
		}
		d.problems[p.Name] = p
		d.probOrder = append(d.probOrder, p.Name)
	}
	// Parents with children start Waiting, leaves start Open.
	for _, p := range d.problems {
		if p.IsLeaf() {
			p.status = Open
		} else {
			p.status = Waiting
		}
	}
	d.refreshStatuses()
	return d, nil
}

// FromScenario builds a DPM (network + problem hierarchy) from a parsed
// DDDL scenario.
func FromScenario(scn *dddl.Scenario, mode Mode) (*DPM, error) {
	return fromScenario(scn, mode, (*DPM).evaluate)
}

// fromScenario is FromScenario with the ADPM evaluation step passed in,
// so the test-only reference (export_test.go) shares everything else.
func fromScenario(scn *dddl.Scenario, mode Mode, evaluate func(*DPM) constraint.PropagateResult) (*DPM, error) {
	net, err := scn.BuildNetwork()
	if err != nil {
		return nil, err
	}
	var problems []*Problem
	byName := map[string]*Problem{}
	for _, pd := range scn.Problems {
		p := &Problem{
			Name:        pd.Name,
			Owner:       pd.Owner,
			Inputs:      append([]string(nil), pd.Inputs...),
			Outputs:     append([]string(nil), pd.Outputs...),
			Constraints: append([]string(nil), pd.Constraints...),
		}
		problems = append(problems, p)
		byName[p.Name] = p
	}
	for _, dec := range scn.Decompositions {
		parent := byName[dec.Parent]
		for _, cn := range dec.Children {
			child := byName[cn]
			if child.Parent != "" {
				return nil, fmt.Errorf("dpm: problem %q decomposed from both %q and %q", cn, child.Parent, dec.Parent)
			}
			child.Parent = dec.Parent
			parent.Children = append(parent.Children, cn)
		}
	}
	d, err := New(net, problems, mode)
	if err != nil {
		return nil, err
	}
	for _, pd := range scn.DerivedOrder() {
		node, err := expr.Parse(pd.Formula)
		if err != nil {
			return nil, fmt.Errorf("dpm: derived %q: %w", pd.Name, err)
		}
		d.derived = append(d.derived, derivedDef{prop: pd.Name, node: node, args: expr.Vars(node)})
		d.derivedSet[pd.Name] = true
	}
	// Requirements may already determine some derived values.
	initiallyBound := map[string]bool{}
	for _, p := range net.Properties() {
		if p.IsBound() {
			initiallyBound[p.Name] = true
		}
	}
	d.recomputeDerived(initiallyBound)
	if mode == ADPM {
		// Initial propagation: requirements bound by the scenario are
		// immediately reflected in feasible subspaces.
		evaluate(d)
		d.refreshStatuses()
	}
	return d, nil
}

// Fork returns an independent copy of the DPM's design state: a
// Network.Clone (structure tables shared copy-on-write; fixpoint marker,
// dirty set, region partition and evaluation count carried over) plus a
// copy of every problem's status. The problem hierarchy and derived
// definitions are fixed once the DPM is built, so they are shared; a
// copy of a fixpoint is a fixpoint, so the fork's first operation costs
// exactly what it would on d. Fork only reads d, so many goroutines may
// fork one DPM concurrently as long as nothing mutates it. The fork
// starts at stage 0 with no history, tracer or scratch networks: Fork is
// meant for a DPM that has executed no operation (a session template).
func (d *DPM) Fork() *DPM {
	f := &DPM{
		Mode:       d.Mode,
		Net:        d.Net.Clone(),
		PropOpts:   d.PropOpts,
		problems:   make(map[string]*Problem, len(d.problems)),
		probOrder:  d.probOrder,
		derived:    d.derived,
		derivedSet: d.derivedSet,
	}
	for name, p := range d.problems {
		f.problems[name] = p.clone()
	}
	return f
}

// evaluate is the DCM's evaluation of the updated network (§2.2), region
// by region. Propagation runs incrementally: equivalent to ResetFeasible
// plus a full Propagate — feasible subspaces re-derived from scratch so
// widened bindings never leave stale reductions behind, statuses
// recomputed — but only for the regions an operation touched (a binding
// changed, a verification overwrote a status). Anything that leaves the
// network without a fixpoint to build on (the first run, Restore, a
// capped run, a structural edit, changed PropOpts) makes the network
// fall back to the full run by itself. The movement windows of the
// assigned design variables in the re-derived regions are then
// refreshed (Fig. 2 shows "consistent values" for already-bound
// properties after each operation); each refresh explores the network
// with the variable freed — a large share of ADPM's extra tool runs
// (§2.2: "additional tool runs are typically performed within ADPM's
// constraint propagation algorithm").
//
// Equivalence contract (TestRegionRefreshMatchesReference): as long as
// no run is capped, bindings, feasible subspaces and movement windows,
// constraint statuses and violations after every operation are
// bit-identical to reset + full propagation + a refresh of every
// movement window, on any network. A touched region is re-derived with
// the sub-schedule the full run would give it, so on a single-region
// network an operation that touches the network runs the identical
// revise schedule and EvalCount is identical too; on a multi-region
// network Evaluations, Narrowed and Emptied describe only the
// re-derived regions. On either, an operation that touches nothing (a
// decomposition, a verification none of whose tools can run yet) finds
// nothing to re-derive and spends no evaluations, where the full run
// recomputed the state it already held. (A cap cuts a region's schedule
// and the whole network's at different points; a capped run leaves no
// marker, so the evaluations after it are full ones until one
// completes.)
func (d *DPM) evaluate() constraint.PropagateResult {
	res := d.Net.Propagate(d.incrementalOpts())
	d.refreshMovementWindows()
	return res
}

// incrementalOpts returns PropOpts with the incremental schedule forced
// on: the DPM mutates its networks only through the Network API, which
// is what the schedule's dirty tracking requires.
func (d *DPM) incrementalOpts() constraint.PropagateOptions {
	opts := d.PropOpts
	opts.Incremental = true
	return opts
}

// SetTracer attaches a trace recorder to the DPM and its live network;
// nil detaches both.
func (d *DPM) SetTracer(tr *trace.Recorder) {
	d.tracer = tr
	d.Net.SetTracer(tr)
}

// Problem returns the named problem, or nil.
func (d *DPM) Problem(name string) *Problem { return d.problems[name] }

// Problems returns all problems in declaration order.
func (d *DPM) Problems() []*Problem {
	out := make([]*Problem, len(d.probOrder))
	for i, n := range d.probOrder {
		out[i] = d.problems[n]
	}
	return out
}

// ProblemsOwnedBy returns the problems assigned to a designer, in
// declaration order.
func (d *DPM) ProblemsOwnedBy(owner string) []*Problem {
	var out []*Problem
	for _, n := range d.probOrder {
		if d.problems[n].Owner == owner {
			out = append(out, d.problems[n])
		}
	}
	return out
}

// History returns the executed transitions (the pairs <s_i, θ_i> of the
// design process history H_n).
func (d *DPM) History() []*Transition { return d.history }

// Stage returns the current stage index n.
func (d *DPM) Stage() int { return d.stage }

// Done reports the paper's termination condition (§3.1.2): every
// problem solved, all problem outputs bound, and no constraint known
// violated.
func (d *DPM) Done() bool {
	for _, n := range d.probOrder {
		if d.problems[n].status != Solved {
			return false
		}
	}
	return d.Net.NumViolations() == 0
}

// Apply executes one design operation: the next-state function δ of
// eq. 2. It updates bindings or statuses, runs constraint propagation
// in ADPM mode, recomputes problem statuses, and appends a Transition
// to the history.
func (d *DPM) Apply(op Operation) (*Transition, error) {
	return d.apply(op, (*DPM).evaluate)
}

// apply is Apply with the ADPM evaluation step passed in (see
// fromScenario).
func (d *DPM) apply(op Operation, evaluate func(*DPM) constraint.PropagateResult) (*Transition, error) {
	prob := d.problems[op.Problem]
	if prob == nil {
		return nil, fmt.Errorf("dpm: operation on unknown problem %q", op.Problem)
	}
	beforeList := d.Net.Violations()
	before := map[string]bool{}
	for _, v := range beforeList {
		before[v] = true
	}
	evals0 := d.Net.EvalCount()
	rec := d.tracer
	var opStart int64
	if rec.Enabled() {
		opStart = rec.Now()
	}

	tr := &Transition{Stage: d.stage, Op: op, ViolationsBefore: beforeList}

	switch op.Kind {
	case OpSynthesis:
		changed := map[string]bool{}
		for _, a := range op.Assignments {
			if d.Net.Property(a.Prop) == nil {
				return nil, fmt.Errorf("dpm: assignment to unknown property %q", a.Prop)
			}
			if err := d.bindInvalidating(a.Prop, a.Value); err != nil {
				return nil, err
			}
			changed[a.Prop] = true
		}
		// Synthesis-tool runs recompute affected derived performance
		// properties (Fig. 2's performance parameters).
		d.recomputeDerived(changed)
	case OpVerification:
		names := op.Verify
		if len(names) == 0 {
			names = prob.Constraints
		}
		for _, cn := range names {
			c := d.Net.Constraint(cn)
			if c == nil {
				return nil, fmt.Errorf("dpm: verification of unknown constraint %q", cn)
			}
			d.verifyAtPoint(c)
		}
	case OpDecomposition:
		if prob.IsLeaf() {
			return nil, fmt.Errorf("dpm: decomposition of leaf problem %q", op.Problem)
		}
		prob.status = Waiting
		for _, cn := range prob.Children {
			if child := d.problems[cn]; child.status != Solved {
				child.status = Open
			}
		}
	default:
		return nil, fmt.Errorf("dpm: unknown operation kind %v", op.Kind)
	}

	if d.Mode == ADPM {
		res := evaluate(d)
		tr.Narrowed = res.Narrowed
		tr.Emptied = res.Emptied
	}

	d.refreshStatuses()

	tr.Evaluations = d.Net.EvalCount() - evals0
	tr.ViolationsAfter = d.Net.Violations()
	for _, v := range tr.ViolationsAfter {
		if !before[v] {
			tr.NewViolations = append(tr.NewViolations, v)
		}
	}
	tr.IsSpin = d.isSpin(op)
	d.history = append(d.history, tr)
	if rec.Enabled() {
		rec.Emit(trace.Event{
			Kind:           trace.KindOperation,
			Stage:          tr.Stage,
			Op:             op.Kind.String(),
			Problem:        op.Problem,
			Designer:       op.Designer,
			Evals:          tr.Evaluations,
			NewViolations:  len(tr.NewViolations),
			OpenViolations: len(tr.ViolationsAfter),
			Emptied:        len(tr.Emptied),
			Spin:           tr.IsSpin,
			DurNanos:       rec.Now() - opStart,
		})
	}
	d.stage++
	return tr, nil
}

// bindInvalidating binds a property and, in conventional mode, resets
// the status of every constraint on it. Verification results that
// depended on the old value are stale; the DPM tracks this dependency
// bookkeeping (state management, not constraint evaluation), which is
// what forces the conventional verify→fix→re-verify loop.
func (d *DPM) bindInvalidating(prop string, v domain.Value) error {
	if err := d.Net.Bind(prop, v); err != nil {
		return err
	}
	if d.Mode == Conventional {
		for _, c := range d.Net.ConstraintsOn(prop) {
			d.Net.SetStatus(c.Name, constraint.Consistent)
		}
	}
	return nil
}

// recomputeDerived re-runs the synthesis tools behind derived
// properties whose (transitive) inputs changed. Each recomputation
// binds the property to the tool-computed value and counts as one
// evaluation. changed is extended with the recomputed properties.
func (d *DPM) recomputeDerived(changed map[string]bool) {
	for _, def := range d.derived {
		affected := false
		ready := true
		for _, a := range def.args {
			if changed[a] {
				affected = true
			}
			if p := d.Net.Property(a); p == nil || !p.IsBound() {
				ready = false
			}
		}
		if !ready {
			continue
		}
		if prop := d.Net.Property(def.prop); prop.IsBound() && !affected {
			continue
		}
		val, err := expr.Eval(def.node, d.Net)
		if err != nil {
			continue
		}
		d.Net.AddEvals(1)
		if err := d.bindInvalidating(def.prop, domain.Real(val)); err != nil {
			continue
		}
		changed[def.prop] = true
	}
}

// dependentDerived returns the derived properties whose formulas
// transitively depend on prop, in definition order.
func (d *DPM) dependentDerived(prop string) []string {
	affected := map[string]bool{prop: true}
	var out []string
	for _, def := range d.derived {
		for _, a := range def.args {
			if affected[a] {
				affected[def.prop] = true
				out = append(out, def.prop)
				break
			}
		}
	}
	return out
}

// MovementWindow computes the feasible movement window of a bound
// design variable: the values it could be re-bound to such that, with
// every other design variable held at its current value and all derived
// performance properties recomputed, the constraint network can still
// be satisfied. This is the "consistent values" range Minerva III
// displays for assigned properties (Fig. 2: the bound Diff-pair-W shows
// {2.5 … 3.698}) and the range the conflict-resolution heuristic moves
// within (§2.4.3). The exploration runs the constraint propagation
// algorithm on a scratch copy of the network; its constraint
// evaluations are charged to this DPM's network — they are real tool
// runs and a large part of ADPM's computational penalty.
func (d *DPM) MovementWindow(prop string) domain.Domain {
	p := d.Net.Property(prop)
	if p == nil || !p.IsNumeric() || d.derivedSet[prop] {
		return domain.Empty(domain.Continuous)
	}
	win, evals := d.movementWindowOn(d.scratchFor(0), prop)
	d.Net.AddEvals(evals)
	return win
}

// scratchFor returns worker slot w's scratch network primed with the
// current design state. The first use of a slot allocates it; after
// that CloneInto reuses the allocation (fast path) until the network's
// structure changes.
func (d *DPM) scratchFor(w int) *constraint.Network {
	for len(d.scratches) <= w {
		d.scratches = append(d.scratches, nil)
	}
	if d.scratches[w] == nil {
		d.scratches[w] = &constraint.Network{}
	}
	d.Net.CloneInto(d.scratches[w])
	return d.scratches[w]
}

// movementWindowOn computes prop's movement window on the given
// (already primed or primable) scratch network and returns it with the
// constraint evaluations spent. It reads d.Net (CloneInto source) and
// mutates only scratch, so distinct scratches may run concurrently as
// long as each was primed via scratchFor first.
//
// The copy carries the live network's fixpoint marker, so freeing the
// variable and propagating incrementally resets and re-derives only the
// variable's own region (plus any region the live network still has
// dirty) — the window a whole-network reset would compute, for the
// evaluations of one region.
func (d *DPM) movementWindowOn(scratch *constraint.Network, prop string) (domain.Domain, int64) {
	d.Net.CloneInto(scratch)
	before := scratch.EvalCount()
	scratch.Unbind(prop)
	for _, dep := range d.dependentDerived(prop) {
		scratch.Unbind(dep)
	}
	scratch.Propagate(d.incrementalOpts())
	return scratch.Property(prop).Feasible(), scratch.EvalCount() - before
}

// windowOutputs returns the properties that can carry a movement
// window: every numeric, non-derived problem output, once, in problem
// declaration order. Problems, their outputs and the derived set are
// fixed once the DPM is built, so the list is computed once.
func (d *DPM) windowOutputs() []*constraint.Property {
	if d.outputs != nil {
		return d.outputs
	}
	seen := map[string]bool{}
	d.outputs = []*constraint.Property{}
	for _, pn := range d.probOrder {
		for _, out := range d.problems[pn].Outputs {
			if seen[out] {
				continue
			}
			seen[out] = true
			if p := d.Net.Property(out); p != nil && p.IsNumeric() && !d.derivedSet[out] {
				d.outputs = append(d.outputs, p)
			}
		}
	}
	return d.outputs
}

// refreshMovementWindows recomputes the movement window of every bound
// design variable that is some problem's output and whose region the
// propagation just re-derived, and stores it as the variable's feasible
// subspace. Every other window is carried over without a second copy to
// invalidate: it is the feasible subspace the live network already
// holds, because an incremental run never resets a clean region, and a
// window depends on nothing outside its variable's region.
//
// Windows of distinct variables are independent: each explores a
// scratch copy of the same post-propagation state with the variable's
// region re-derived from scratch, so neither the window values nor
// the evaluation counts depend on the order in which sibling windows
// are applied. That makes the refresh safe to fan out across
// min(GOMAXPROCS, jobs) workers with per-worker scratch networks, the
// caller being worker 0; the per-window evaluation counts are summed in
// window order afterwards (ordered reduction) so Net.EvalCount() — and
// every figure metric derived from it — is identical for every worker
// count. The fan-out pays even on a one-region network: forcing the
// refresh serial made dpm.apply_small_us (receiver) 25–35 % slower on
// a 2-vCPU box.
func (d *DPM) refreshMovementWindows() {
	r := &d.refresh
	r.jobs = r.jobs[:0]
	for _, p := range d.windowOutputs() {
		if p.IsBound() && d.Net.Rederived(p.Name) {
			r.jobs = append(r.jobs, p)
		}
	}
	n := len(r.jobs)
	if n == 0 {
		return
	}
	rec := d.tracer
	var refreshStart, totalEvals int64
	if rec.Enabled() {
		refreshStart = rec.Now()
	}
	if cap(r.wins) < n {
		r.wins = make([]domain.Domain, n)
		r.evals = make([]int64, n)
	}
	r.wins, r.evals = r.wins[:n], r.evals[:n]
	workers := min(runtime.GOMAXPROCS(0), n)
	// Prime every scratch before any worker starts: the first CloneInto
	// of a fresh scratch takes the structure-sharing slow path; inside
	// the workers every CloneInto hits the read-only fast path.
	for w := 0; w < workers; w++ {
		d.scratchFor(w)
	}
	r.next.Store(0)
	for w := 1; w < workers; w++ {
		r.wg.Add(1)
		go func(scratch *constraint.Network) {
			defer r.wg.Done()
			d.refreshWorker(scratch)
		}(d.scratches[w])
	}
	d.refreshWorker(d.scratches[0])
	r.wg.Wait()
	// Ordered reduction; per-window trace events are emitted here on the
	// caller's goroutine, in window order, never from the workers.
	for i, p := range r.jobs {
		d.Net.AddEvals(r.evals[i])
		p.SetFeasible(r.wins[i])
		totalEvals += r.evals[i]
		if rec.FullDetail() {
			rec.Emit(trace.Event{Kind: trace.KindWindow, Name: p.Name, Evals: r.evals[i]})
		}
	}
	if rec.Enabled() {
		rec.Emit(trace.Event{
			Kind:     trace.KindWindowRefresh,
			Jobs:     n,
			Workers:  workers,
			Evals:    totalEvals,
			DurNanos: rec.Now() - refreshStart,
		})
	}
}

// refreshWorker computes movement windows on scratch, claiming the
// refresh's jobs one at a time until none is left.
func (d *DPM) refreshWorker(scratch *constraint.Network) {
	r := &d.refresh
	for {
		i := int(r.next.Add(1)) - 1
		if i >= len(r.jobs) {
			return
		}
		r.wins[i], r.evals[i] = d.movementWindowOn(scratch, r.jobs[i].Name)
	}
}

// ResynthesisTargets returns the problem's non-derived numeric output
// properties — the set a subsystem re-synthesis reassigns.
func (d *DPM) ResynthesisTargets(problem string) []string {
	p := d.problems[problem]
	if p == nil {
		return nil
	}
	var out []string
	for _, o := range p.Outputs {
		prop := d.Net.Property(o)
		if prop == nil || !prop.IsNumeric() || d.derivedSet[o] {
			continue
		}
		out = append(out, o)
	}
	return out
}

// ResynthesisScratch prepares a scratch network for re-synthesizing the
// problem's outputs: a clone with those outputs and their dependent
// derived properties freed, feasible subspaces reset. The caller runs a
// search over it and charges the consumed evaluations back via
// ChargeEvals. Used by the DCM to offer coordinated multi-output fix
// candidates (§2.3: "executing design operations that will fix many
// violations at a time").
func (d *DPM) ResynthesisScratch(problem string) (*constraint.Network, []string) {
	targets := d.ResynthesisTargets(problem)
	if len(targets) == 0 {
		return nil, nil
	}
	scratch := d.Net.Clone()
	freed := map[string]bool{}
	for _, t := range targets {
		scratch.Unbind(t)
		freed[t] = true
		for _, dep := range d.dependentDerived(t) {
			if !freed[dep] {
				scratch.Unbind(dep)
				freed[dep] = true
			}
		}
	}
	scratch.ResetFeasible()
	return scratch, targets
}

// DerivedCompletion returns a function that binds every derived
// property computable from the network's current bindings, in
// dependency order — the synthesis-tool pass a search needs before
// verifying a candidate point.
func (d *DPM) DerivedCompletion() func(net *constraint.Network) error {
	defs := d.derived
	return func(net *constraint.Network) error {
		for _, def := range defs {
			v, err := expr.Eval(def.node, net)
			if err != nil {
				return err
			}
			if err := net.Bind(def.prop, domain.Real(v)); err != nil {
				return err
			}
		}
		return nil
	}
}

// ChargeEvals adds externally consumed constraint evaluations (e.g.
// from a resynthesis search on a scratch network) to the process's
// resource accounting.
func (d *DPM) ChargeEvals(n int64) { d.Net.AddEvals(n) }

// verifyAtPoint point-evaluates one constraint, mimicking a CAD
// verification tool run: it requires all arguments bound (the paper's
// verification operators execute only when their inputs are bound) and
// records a binary satisfied/violated status.
func (d *DPM) verifyAtPoint(c *constraint.Constraint) {
	for _, a := range c.Args() {
		if p := d.Net.Property(a); p == nil || !p.IsBound() {
			return // tool cannot run yet; no evaluation counted
		}
	}
	holds, known := c.HoldsAt(d.Net)
	if !known {
		return
	}
	d.Net.AddEvals(1)
	if holds {
		d.Net.SetStatus(c.Name, constraint.Satisfied)
	} else {
		d.Net.SetStatus(c.Name, constraint.Violated)
	}
}

// isSpin reports whether the operation is a design spin: an executed
// operation due to at least one violation involving properties from
// multiple subsystems (§3.1.2), which the paper equates with "expensive
// design iterations performed upon system integration". Operationally:
// the operation reworks a problem that had already been solved, and is
// motivated by a cross-subsystem violation. Early fixes — made while
// the subsystem is still open, as ADPM's timely feedback enables — are
// ordinary design work, not late iterations.
func (d *DPM) isSpin(op Operation) bool {
	prob := d.problems[op.Problem]
	if prob == nil || !prob.everSolved {
		return false
	}
	for _, cn := range op.MotivatedBy {
		c := d.Net.Constraint(cn)
		if c == nil {
			continue
		}
		if d.IsCrossSubsystem(c) {
			return true
		}
	}
	return false
}

// DefConstraint returns the defining equality constraint of a derived
// property, or nil.
func (d *DPM) DefConstraint(prop string) *constraint.Constraint {
	if !d.derivedSet[prop] {
		return nil
	}
	return d.Net.Constraint(prop + ".def")
}

// IsCrossSubsystem reports whether a constraint's arguments span
// properties of more than one owner. Derived arguments are expanded
// through their defining formulas: a spec on System_gain effectively
// couples every subsystem contributing to the gain, and fixing its
// violation is an integration-level iteration (a spin).
func (d *DPM) IsCrossSubsystem(c *constraint.Constraint) bool {
	owners := map[string]bool{}
	var visit func(prop string, depth int)
	visit = func(prop string, depth int) {
		if depth > 8 {
			return
		}
		if d.derivedSet[prop] {
			if def := d.DefConstraint(prop); def != nil {
				for _, a := range def.Args() {
					if a != prop {
						visit(a, depth+1)
					}
				}
				return
			}
		}
		p := d.Net.Property(prop)
		if p != nil && p.Owner != "" {
			owners[p.Owner] = true
		}
	}
	for _, a := range c.Args() {
		visit(a, 0)
	}
	return len(owners) > 1
}

// refreshStatuses recomputes every problem's status from the network:
// a leaf is Solved when all outputs are bound and every constraint in
// T_i is known Satisfied; a decomposed problem additionally requires all
// children Solved (and is Waiting until then).
func (d *DPM) refreshStatuses() {
	// Leaves first, then parents (iterate until fixpoint to support
	// multi-level hierarchies without explicit topological order).
	for range d.probOrder {
		changed := false
		for _, n := range d.probOrder {
			p := d.problems[n]
			ns := d.computeStatus(p)
			if ns != p.status {
				p.SetStatus(ns)
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

func (d *DPM) computeStatus(p *Problem) ProblemStatus {
	if !p.IsLeaf() {
		for _, cn := range p.Children {
			if d.problems[cn].status != Solved {
				return Waiting
			}
		}
	}
	for _, o := range p.Outputs {
		if prop := d.Net.Property(o); prop == nil || !prop.IsBound() {
			return Open
		}
	}
	for _, cn := range p.Constraints {
		if d.Net.Status(cn) != constraint.Satisfied {
			return Open
		}
	}
	return Solved
}

// Spins counts the design spins executed so far.
func (d *DPM) Spins() int {
	n := 0
	for _, tr := range d.history {
		if tr.IsSpin {
			n++
		}
	}
	return n
}
