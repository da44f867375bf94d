// Package dcm implements the Design Constraint Manager's "mining" step
// (paper §1, §2.2–2.3): it consolidates raw constraint-network state
// into data that explicitly supports constraint-based search heuristics
// and packages, per designer, exactly the information the paper's
// simulated designer model keeps in its internal state (§3.1.1):
//
//   - feasible subspaces v_F(a_i) and their unit-free relative sizes,
//   - the number of connected constraints β_i,
//   - the number of connected violations α_i,
//   - lists of constraints monotonically increasing/decreasing in a_i
//     and the value-change direction likely to fix most violations.
//
// In conventional mode (λ=F) the same view structure is produced, but
// feasible subspaces degrade to the initial ranges E_i and violation
// knowledge is limited to statuses established by explicitly requested
// verification operations.
package dcm

import (
	"sort"
	"strings"

	"repro/internal/constraint"
	"repro/internal/domain"
	"repro/internal/dpm"
	"repro/internal/expr"
	"repro/internal/solver"
)

// PropInfo is the per-property heuristic support data of §2.3.
type PropInfo struct {
	Name   string
	Object string
	Owner  string
	// Init is the property's initial range E_i.
	Init domain.Domain
	// Feasible is v_F(a_i) — in conventional mode simply E_i.
	Feasible domain.Domain
	// Bound holds the assigned value when the property is bound.
	Bound *domain.Value
	// Alpha is α_i, the number of known violated constraints connected
	// to the property — counted through derived-property chains, so a
	// violated spec on a derived performance value counts against the
	// design variables that determine it (§2.3.2's indirect extension).
	Alpha int
	// Beta is β_i, the number of connected constraints.
	Beta int
	// BetaIndirect extends β_i with constraints indirectly related to
	// the property through one intermediate constraint — the extension
	// §2.3.2 describes ("β_i may also include constraints indirectly
	// related to a_i by an intermediate constraint").
	BetaIndirect int
	// RelFeasible is |v_F| / |E_i| in [0,1] — the unit-free feasible
	// subspace size used by the smallest-subspace heuristic (§2.3.1).
	RelFeasible float64
	// IncreasingIn / DecreasingIn list constraints monotonically
	// increasing/decreasing in this property (difference sign), the
	// §3.1.1 internal-state lists.
	IncreasingIn []string
	DecreasingIn []string
	// FixVotes sums, over violated constraints on this property, the
	// direction of value change likely to fix them: positive means
	// "increase the value", negative "decrease".
	FixVotes int
	// SatVotes sums the helpful direction over all constraints on the
	// property, violated or not. The value selection function uses it to
	// pick the top or bottom of a value set "based on what may satisfy
	// most constraints" (§3.1.1).
	SatVotes int
	// Writable is true when the designer owns a problem that has this
	// property among its outputs.
	Writable bool
}

// ViolationInfo describes one known violated constraint.
type ViolationInfo struct {
	Constraint string
	Args       []string
	// CrossSubsystem is true when the constraint's arguments span
	// properties of multiple owners (fixing it is a design spin).
	CrossSubsystem bool
	// FixDirections maps each argument to the value-change direction
	// (+1/-1) expected to help satisfy the constraint, 0 when unknown.
	FixDirections map[string]int
	// FixSteps maps each leaf property to the estimated movement needed
	// to close the violation by changing that property alone:
	// margin / |∂(lhs−rhs)/∂property| via the chain rule through
	// derived-property formulas. 0 when the sensitivity is unknown.
	// Verification tools report margins and designers know their own
	// models' sensitivities, so both modes may use this estimate.
	FixSteps map[string]float64
	// Margin is the violation magnitude (positive when violated).
	Margin float64
}

// ProblemInfo summarizes one problem assigned to the designer.
type ProblemInfo struct {
	Name           string
	Status         dpm.ProblemStatus
	Outputs        []string
	UnboundOutputs []string
	Constraints    []string
	// VerifiableConstraints lists constraints of the problem whose
	// status is still unknown (Consistent) and whose arguments are all
	// bound — the ones a verification-tool run would settle.
	VerifiableConstraints []string
}

// View is the information available to one designer when choosing the
// next operation: their addressable problems, heuristic data for every
// property they are concerned with, and the violations they know of.
type View struct {
	Designer string
	// ADPM is true when the view carries propagation-derived data.
	ADPM bool
	// Problems lists the designer's problems (all of them, including
	// Waiting ones; the problem-selection function filters).
	Problems []ProblemInfo
	// Props holds heuristic data for the designer's properties of
	// concern, keyed by name.
	Props map[string]*PropInfo
	// Violations lists known violated constraints relevant to this
	// designer, in network insertion order.
	Violations []ViolationInfo
	// Resynthesize, when non-nil (ADPM mode), asks the DCM for a
	// coordinated assignment of all of a problem's outputs that
	// satisfies the network given everything else current — §2.3's
	// "design operations that will fix many violations at a time". The
	// search consumes constraint evaluations (charged to the process);
	// nil result means no such assignment was found within budget.
	Resynthesize func(problem string) map[string]float64
}

// BuildView assembles the view for one designer from the DPM's current
// state. The NM's relevance filtering (§2.2) is applied here: a
// property is of concern when it belongs to one of the designer's
// problems or appears in a constraint together with such a property;
// a violation is relevant when it touches a property of concern.
func BuildView(d *dpm.DPM, designer string) *View {
	v := &View{
		Designer: designer,
		ADPM:     d.Mode == dpm.ADPM,
		Props:    map[string]*PropInfo{},
	}
	net := d.Net

	// Collect the designer's problems.
	writable := map[string]bool{} // outputs of own problems
	for _, p := range d.ProblemsOwnedBy(designer) {
		pi := ProblemInfo{
			Name:        p.Name,
			Status:      p.Status(),
			Outputs:     append([]string(nil), p.Outputs...),
			Constraints: append([]string(nil), p.Constraints...),
		}
		for _, o := range p.Outputs {
			writable[o] = true
			if prop := net.Property(o); prop != nil && !prop.IsBound() {
				pi.UnboundOutputs = append(pi.UnboundOutputs, o)
			}
		}
		for _, cn := range p.Constraints {
			c := net.Constraint(cn)
			if c == nil || net.Status(cn) != constraint.Consistent {
				continue
			}
			ready := true
			for _, a := range c.Args() {
				if ap := net.Property(a); ap == nil || !ap.IsBound() {
					ready = false
					break
				}
			}
			if ready {
				pi.VerifiableConstraints = append(pi.VerifiableConstraints, cn)
			}
		}
		v.Problems = append(v.Problems, pi)
	}

	concern, relevantCons := Concern(d, designer)

	// Per-property heuristic data.
	names := make([]string, 0, len(concern))
	for name := range concern {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		prop := net.Property(name)
		if prop == nil {
			continue
		}
		pi := &PropInfo{
			Name:         name,
			Object:       prop.Object,
			Owner:        prop.Owner,
			Init:         prop.Init,
			Beta:         net.Beta(name),
			BetaIndirect: net.BetaIndirect(name),
			Writable:     writable[name],
		}
		if v.ADPM {
			pi.Feasible = prop.Feasible()
		} else {
			pi.Feasible = prop.Init
		}
		pi.RelFeasible = pi.Feasible.RelativeSize(prop.Init)
		if bv, ok := prop.Value(); ok {
			b := bv
			pi.Bound = &b
		}
		for _, c := range net.ConstraintsOn(name) {
			switch c.MonotoneSign(name, net) {
			case +1:
				pi.IncreasingIn = append(pi.IncreasingIn, c.Name)
			case -1:
				pi.DecreasingIn = append(pi.DecreasingIn, c.Name)
			}
		}
		v.Props[name] = pi
	}

	// SatVotes: the helpful direction summed over every relevant
	// requirement constraint, expanded to leaf properties. Defining
	// equalities are skipped — the DPM keeps them satisfied by
	// construction, so they carry no preference.
	for cn := range relevantCons {
		c := net.Constraint(cn)
		if d.DefConstraint(strings.TrimSuffix(cn, ".def")) == c {
			continue
		}
		for prop, dir := range ExpandFixDirections(d, c) {
			if pi := v.Props[prop]; pi != nil {
				pi.SatVotes += dir
			}
		}
	}

	// Relevant violations, with derived arguments expanded through
	// their defining formulas to the leaf properties a designer can
	// actually move (chain rule over monotone signs).
	for _, cn := range net.Violations() {
		if !relevantCons[cn] {
			continue
		}
		c := net.Constraint(cn)
		vi := ViolationInfo{
			Constraint:     cn,
			Args:           append([]string(nil), c.Args()...),
			CrossSubsystem: d.IsCrossSubsystem(c),
			FixDirections:  ExpandFixDirections(d, c),
			Margin:         c.Margin(net),
		}
		vi.FixSteps = ExpandFixSteps(d, c, vi.Margin)
		v.Violations = append(v.Violations, vi)
	}

	// α and fix votes are accumulated over the expanded violations, so
	// a violated gain spec counts against the transistor width that
	// determines the gain (the §2.3.2 indirect-connection extension).
	for _, vi := range v.Violations {
		for prop, dir := range vi.FixDirections {
			if pi := v.Props[prop]; pi != nil {
				pi.Alpha++
				pi.FixVotes += dir
			}
		}
	}

	if v.ADPM {
		v.Resynthesize = func(problem string) map[string]float64 {
			return resynthesize(d, problem)
		}
	}
	return v
}

// Concern is the NM's relevance closure for one designer (§2.2): the
// properties of concern and the relevant constraints. A property is of
// concern when it is an input or output of one of the designer's
// problems, lies on a derived-property chain through such a property (a
// designer whose transistor width feeds LNA_gain feeds System_gain is
// concerned with the system gain), or appears in a constraint together
// with one. The relevant constraints are those on the properties of
// concern before that last co-argument hop — the violations the
// designer's view reports. The closure is pure structure: it depends on
// the problem hierarchy and the constraint graph, never on bindings.
func Concern(d *dpm.DPM, designer string) (props, cons map[string]bool) {
	net := d.Net
	props = map[string]bool{}
	for _, p := range d.ProblemsOwnedBy(designer) {
		for _, o := range p.Outputs {
			props[o] = true
		}
		for _, in := range p.Inputs {
			props[in] = true
		}
	}
	all := net.Constraints()
	for changed := true; changed; {
		changed = false
		for _, c := range all {
			if d.DefConstraint(strings.TrimSuffix(c.Name, ".def")) != c {
				continue
			}
			touches := false
			for _, a := range c.Args() {
				if props[a] {
					touches = true
					break
				}
			}
			if !touches {
				continue
			}
			for _, a := range c.Args() {
				if !props[a] {
					props[a] = true
					changed = true
				}
			}
		}
	}
	cons = map[string]bool{}
	for name := range props {
		for _, c := range net.ConstraintsOn(name) {
			cons[c.Name] = true
		}
	}
	for cn := range cons {
		for _, a := range net.Constraint(cn).Args() {
			props[a] = true
		}
	}
	return props, cons
}

// resynthesize runs a bounded branch-and-prune search for a joint
// assignment of the problem's outputs over a scratch network.
func resynthesize(d *dpm.DPM, problem string) map[string]float64 {
	scratch, targets := d.ResynthesisScratch(problem)
	if scratch == nil {
		return nil
	}
	before := scratch.EvalCount()
	res, err := solver.Solve(scratch, solver.Options{
		Targets:  targets,
		MaxNodes: 800,
		Complete: d.DerivedCompletion(),
	})
	d.ChargeEvals(scratch.EvalCount() - before)
	if err != nil || !res.Satisfiable {
		return nil
	}
	return res.Witness
}

// midEnv evaluates properties at their bound value, or the midpoint of
// their current interval when unbound — the linearization point for
// sensitivity estimates.
type midEnv struct {
	net *constraint.Network
}

func (e midEnv) Value(name string) (float64, bool) {
	if v, ok := e.net.Value(name); ok {
		return v, true
	}
	iv := e.net.Domain(name)
	if iv.IsEmpty() {
		return 0, false
	}
	m := iv.Mid()
	if m != m { // NaN
		return 0, false
	}
	return m, true
}

// ExpandFixSteps estimates, per leaf property, the movement needed to
// close a violation of c with margin m by moving that property alone:
// |m| / |∂(lhs−rhs)/∂property|, with the chain rule composing through
// derived-property formulas. Unknown sensitivities yield 0.
func ExpandFixSteps(d *dpm.DPM, c *constraint.Constraint, margin float64) map[string]float64 {
	net := d.Net
	env := midEnv{net: net}
	out := map[string]float64{}
	if margin <= 0 {
		return out
	}
	diffNode := &expr.Binary{Op: '-', X: c.Lhs, Y: c.Rhs}

	// gradAt returns |∂node/∂prop| at the linearization point, or 0.
	gradAt := func(node expr.Node, prop string) float64 {
		dnode := expr.Diff(node, prop)
		if dnode == nil {
			return 0
		}
		g, err := expr.Eval(dnode, env)
		if err != nil || g != g || g == 0 {
			return 0
		}
		if g < 0 {
			return -g
		}
		return g
	}

	var visit func(prop string, grad float64, depth int)
	visit = func(prop string, grad float64, depth int) {
		if grad == 0 || depth > 8 {
			return
		}
		def := d.DefConstraint(prop)
		if def == nil {
			step := margin / grad
			if cur, ok := out[prop]; !ok || step > cur {
				out[prop] = step
			}
			return
		}
		// prop is derived with prop == formula; chain through.
		formula := def.Rhs
		for _, a := range expr.Vars(formula) {
			visit(a, grad*gradAt(formula, a), depth+1)
		}
	}
	for _, a := range c.Args() {
		if d.DefConstraint(a) == c {
			continue
		}
		visit(a, gradAt(diffNode, a), 0)
	}
	return out
}

// ExpandFixDirections maps each leaf property that can influence the
// violated constraint c to the direction of value change expected to
// help satisfy it. Derived arguments are expanded through their
// defining formulas: to raise a derived value, move each formula input
// in the direction of its monotone sign. Unknown signs propagate as
// direction 0 (the property remains a candidate, direction random).
func ExpandFixDirections(d *dpm.DPM, c *constraint.Constraint) map[string]int {
	net := d.Net
	out := map[string]int{}
	var visit func(prop string, dir, depth int)
	visit = func(prop string, dir, depth int) {
		def := d.DefConstraint(prop)
		if def == nil || depth > 8 {
			if cur, ok := out[prop]; !ok || cur == 0 {
				out[prop] = dir
			} else if dir != 0 && dir != cur {
				out[prop] = 0 // conflicting advice: direction unknown
			}
			return
		}
		for _, a := range def.Args() {
			if a == prop {
				continue
			}
			// def.diff = prop - formula, so the formula's monotone sign
			// in a is the negated constraint sign.
			s := -def.MonotoneSign(a, net)
			visit(a, dir*s, depth+1)
		}
	}
	for _, a := range c.Args() {
		// When c is the defining constraint of a itself, the derived
		// property is not a handle: its value follows from the formula.
		// Expanding it would advise moving the formula inputs so the
		// formula chases the (spec-pinned) derived window — the exact
		// opposite of resolving the conflict. The other arguments of the
		// definition already carry the correct directions.
		if d.DefConstraint(a) == c {
			continue
		}
		visit(a, c.FixDirection(a, net), 0)
	}
	return out
}

// KnowsViolations reports whether the designer currently knows of any
// violation (the condition steering f_a between the subspace-ordering
// and conflict-resolution heuristics, §3.1.1).
func (v *View) KnowsViolations() bool { return len(v.Violations) > 0 }

// AddressableProblems returns the designer's problems without a Waiting
// status (the paper's problem selection function f_p).
func (v *View) AddressableProblems() []ProblemInfo {
	var out []ProblemInfo
	for _, p := range v.Problems {
		if p.Status != dpm.Waiting {
			out = append(out, p)
		}
	}
	return out
}
