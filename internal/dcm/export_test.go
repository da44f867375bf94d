package dcm

import (
	"sort"
	"strings"

	"repro/internal/constraint"
	"repro/internal/dpm"
	"repro/internal/expr"
)

// The sequential specification view plans are judged against
// (TestBuildViewMatchesReference): the DCM's mining step written
// directly over the DPM, with no cached plan, exactly as BuildView
// computed it before. Everything it calls besides the two expansions
// below is the production code.

// BuildViewReference is BuildView as it was before view plans: every
// structure query (relevance closure, β, fix-direction expansion) is
// re-derived and every monotone sign re-evaluated on each call.
func BuildViewReference(d *dpm.DPM, designer string) *View {
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
