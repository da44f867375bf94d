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
	"strings"

	"repro/internal/constraint"
	"repro/internal/domain"
	"repro/internal/dpm"
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
//
// Everything in a view that depends only on structure — the relevance
// closure, β, ownership, the walk that expands fix directions through
// derived-property chains — comes from a plan cached on the DPM per
// designer and rebuilt when d.Net is replaced or its structure
// generation moves (see plan.go). Only state is read per call, and
// each monotone sign at most once. The plan also holds the per-call
// workspace, so one DPM's views must be built by one goroutine at a
// time, like every other use of a DPM. The only concurrent caller,
// teamsim.RunConcurrent, builds them all on its server goroutine.
func BuildView(d *dpm.DPM, designer string) *View {
	return planFor(d, designer).view(d, designer)
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
