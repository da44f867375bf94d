package constraint

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/expr"
	"repro/internal/interval"
)

// Relation is the comparison operator of a constraint.
type Relation int

// Supported relations.
const (
	LE Relation = iota // <=
	LT                 // <
	GE                 // >=
	GT                 // >
	EQ                 // ==
	NE                 // !=
)

// String returns the relation's source form.
func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case LT:
		return "<"
	case GE:
		return ">="
	case GT:
		return ">"
	case EQ:
		return "=="
	case NE:
		return "!="
	}
	return fmt.Sprintf("Relation(%d)", int(r))
}

// ParseRelation converts a source token to a Relation.
func ParseRelation(s string) (Relation, error) {
	switch s {
	case "<=":
		return LE, nil
	case "<":
		return LT, nil
	case ">=":
		return GE, nil
	case ">":
		return GT, nil
	case "==", "=":
		return EQ, nil
	case "!=":
		return NE, nil
	}
	return 0, fmt.Errorf("constraint: unknown relation %q", s)
}

// Status is the tri-state constraint status s(c_i) of paper §2.1:
// satisfied when the relation holds for every combination of current
// argument values, violated when it holds for none, and consistent
// (status "Unknown" in the paper) otherwise.
type Status int

// Status values.
const (
	Consistent Status = iota // some combinations satisfy, some may not
	Satisfied                // holds for all current combinations
	Violated                 // holds for no current combination
)

// String names the status as the paper's UI does (Fig. 4).
func (s Status) String() string {
	switch s {
	case Satisfied:
		return "Satisfied"
	case Violated:
		return "Violated"
	case Consistent:
		return "Consistent"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Constraint is a design constraint c_i: a relation over a set of
// argument properties (paper eq. 1), stated as lhs REL rhs where both
// sides are arithmetic expressions over property names.
type Constraint struct {
	// Name uniquely identifies the constraint within a network.
	Name string
	// Lhs and Rhs are the two sides of the relation.
	Lhs, Rhs expr.Node
	// Rel is the comparison relating Lhs to Rhs.
	Rel Relation
	// MonoOverride optionally declares, per property, the direction of
	// value change that helps satisfy this constraint (+1 increase, -1
	// decrease), as DDDL's monotonicity declarations do (§3.1.2). When a
	// property has no override the direction is derived from the sign of
	// the symbolic derivative.
	MonoOverride map[string]int

	// diff is the canonical expression Lhs - Rhs, cached at build time.
	diff expr.Node
	// args is the sorted list of distinct argument property names.
	args []string
	// derivs caches ∂(Lhs-Rhs)/∂arg per argument, computed once at build
	// time. A nil entry means the derivative is not expressible
	// (monotonicity unknown). The map is immutable after construction, so
	// constraints stay safe to share across cloned networks and
	// goroutines. MonotoneSign interval-evaluates these cached trees
	// instead of re-deriving them per call — view building queries the
	// monotone sign of every constraint on every property per operation.
	derivs map[string]expr.Node
}

// New builds a constraint lhs rel rhs.
func New(name string, lhs expr.Node, rel Relation, rhs expr.Node) *Constraint {
	c := &Constraint{Name: name, Lhs: lhs, Rhs: rhs, Rel: rel}
	c.diff = &expr.Binary{Op: '-', X: lhs, Y: rhs}
	c.args = expr.Vars(c.diff)
	c.derivs = make(map[string]expr.Node, len(c.args))
	for _, a := range c.args {
		c.derivs[a] = expr.Diff(c.diff, a)
	}
	return c
}

// ParseConstraint parses "lhs REL rhs" source text, e.g.
// "Pf + Ps <= PM".
func ParseConstraint(name, src string) (*Constraint, error) {
	relPos, relTok := -1, ""
	for _, tok := range []string{"<=", ">=", "==", "!=", "<", ">", "="} {
		if i := strings.Index(src, tok); i >= 0 {
			relPos, relTok = i, tok
			break
		}
	}
	if relPos < 0 {
		return nil, fmt.Errorf("constraint %s: no relation operator in %q", name, src)
	}
	lhs, err := expr.Parse(src[:relPos])
	if err != nil {
		return nil, fmt.Errorf("constraint %s: lhs: %w", name, err)
	}
	rhs, err := expr.Parse(src[relPos+len(relTok):])
	if err != nil {
		return nil, fmt.Errorf("constraint %s: rhs: %w", name, err)
	}
	rel, err := ParseRelation(relTok)
	if err != nil {
		return nil, err
	}
	return New(name, lhs, rel, rhs), nil
}

// MustParseConstraint is ParseConstraint panicking on error, for
// statically known scenario definitions.
func MustParseConstraint(name, src string) *Constraint {
	c, err := ParseConstraint(name, src)
	if err != nil {
		panic(err)
	}
	return c
}

// Args returns the sorted distinct argument property names (the paper's
// a_i vector).
func (c *Constraint) Args() []string { return c.args }

// HasArg reports whether the named property is an argument of c.
func (c *Constraint) HasArg(name string) bool {
	for _, a := range c.args {
		if a == name {
			return true
		}
	}
	return false
}

// String renders the constraint as source text.
func (c *Constraint) String() string {
	return fmt.Sprintf("%s: %s %s %s", c.Name, c.Lhs, c.Rel, c.Rhs)
}

// StatusOver computes the constraint's tri-state status from an interval
// enclosure of its arguments' current value sets. The decision is
// conservative: Satisfied and Violated are only reported when certain.
func (c *Constraint) StatusOver(env expr.IntervalEnv) Status {
	e := expr.EvalInterval(c.diff, env)
	return statusFromDiff(e, c.Rel)
}

func statusFromDiff(e interval.Interval, rel Relation) Status {
	if e.IsEmpty() {
		// Some argument has an empty value set: no combination exists,
		// so the relation holds for none of them.
		return Violated
	}
	switch rel {
	case LE:
		if e.Hi <= 0 {
			return Satisfied
		}
		if e.Lo > 0 {
			return Violated
		}
	case LT:
		if e.Hi < 0 {
			return Satisfied
		}
		if e.Lo >= 0 {
			return Violated
		}
	case GE:
		if e.Lo >= 0 {
			return Satisfied
		}
		if e.Hi < 0 {
			return Violated
		}
	case GT:
		if e.Lo > 0 {
			return Satisfied
		}
		if e.Hi <= 0 {
			return Violated
		}
	case EQ:
		if e.Lo >= -eqTol && e.Hi <= eqTol {
			return Satisfied
		}
		if e.Lo > eqTol || e.Hi < -eqTol {
			return Violated
		}
	case NE:
		if e.Lo > eqTol || e.Hi < -eqTol {
			return Satisfied
		}
		if e.Lo >= -eqTol && e.Hi <= eqTol {
			return Violated
		}
	}
	return Consistent
}

// eqTol is the absolute tolerance for equality relations. Derived
// performance properties are bound to tool-computed values and then
// checked against their defining equalities; without a tolerance, a
// single ulp of floating-point disagreement would read as a violation.
const eqTol = 1e-9

// HoldsAt evaluates the relation at a full point assignment. The second
// result is false when some argument is unbound in env.
func (c *Constraint) HoldsAt(env expr.FloatEnv) (bool, bool) {
	l, err := expr.Eval(c.Lhs, env)
	if err != nil {
		return false, false
	}
	r, err := expr.Eval(c.Rhs, env)
	if err != nil {
		return false, false
	}
	switch c.Rel {
	case LE:
		return l <= r, true
	case LT:
		return l < r, true
	case GE:
		return l >= r, true
	case GT:
		return l > r, true
	case EQ:
		return math.Abs(l-r) <= eqTol, true
	case NE:
		return math.Abs(l-r) > eqTol, true
	}
	return false, true
}

// requiredDiff returns the interval the expression Lhs-Rhs must lie in
// for the constraint to be satisfiable, used by propagation. NE yields
// no restriction.
func (c *Constraint) requiredDiff() (interval.Interval, bool) {
	switch c.Rel {
	case LE, LT:
		return interval.New(math.Inf(-1), 0), true
	case GE, GT:
		return interval.New(0, math.Inf(1)), true
	case EQ:
		// The equality tolerance keeps tool-computed derived values from
		// reading as inconsistent due to floating-point disagreement.
		return interval.New(-eqTol, eqTol), true
	default:
		return interval.Interval{}, false
	}
}

// Narrow performs one HC4 revise of this constraint against box,
// shrinking argument domains to values that can still satisfy it.
func (c *Constraint) Narrow(box expr.Box) expr.NarrowResult {
	want, ok := c.requiredDiff()
	if !ok {
		return expr.NarrowResult{}
	}
	return expr.Narrow(c.diff, want, box)
}

// MonotoneSign reports the sign of ∂(Lhs-Rhs)/∂prop over env: +1 when
// increasing prop increases the difference, -1 when it decreases it, 0
// when unknown. Explicit MonoOverride entries are interpreted as "the
// direction that helps satisfy" and converted to a difference sign.
func (c *Constraint) MonotoneSign(prop string, env expr.IntervalEnv) int {
	if sign, ok := c.overrideSign(prop); ok {
		return sign
	}
	d, isArg := c.derivs[prop]
	if !isArg {
		// Not an argument (or a constraint built without New): fall back
		// to the generic path, which handles both cases.
		return expr.MonotoneSign(c.diff, prop, env)
	}
	return derivativeSign(d, env)
}

// overrideSign converts a MonoOverride entry for prop, if any, to a
// difference sign.
func (c *Constraint) overrideSign(prop string) (int, bool) {
	dir, ok := c.MonoOverride[prop]
	if !ok {
		return 0, false
	}
	// dir is the helpful direction for satisfaction. For <=-like
	// relations satisfaction means pushing the difference down, so a
	// helpful increase (+1) implies the difference decreases (-1).
	switch c.Rel {
	case LE, LT:
		return -dir, true
	case GE, GT:
		return dir, true
	default:
		return 0, true
	}
}

// derivativeSign is the sign of the derivative tree d over env, 0 when d
// is nil (not expressible) or its enclosure straddles zero.
func derivativeSign(d expr.Node, env expr.IntervalEnv) int {
	if d == nil {
		return 0
	}
	iv := expr.EvalInterval(d, env)
	if iv.IsEmpty() {
		return 0
	}
	if iv.Lo >= 0 {
		return +1
	}
	if iv.Hi <= 0 {
		return -1
	}
	return 0
}

// FixDirection returns the direction (+1 or -1) in which moving prop's
// value is expected to help satisfy the constraint, or 0 when unknown.
// For inequality relations the direction follows from monotonicity; for
// equalities it additionally depends on the current sign of Lhs-Rhs,
// supplied through env's midpoint.
func (c *Constraint) FixDirection(prop string, env expr.IntervalEnv) int {
	return c.FixDirectionForSign(c.MonotoneSign(prop, env), env)
}

// FixDirectionForSign is FixDirection for an argument whose monotone
// sign (MonotoneSign's result over the same env) is already known, so a
// caller that memoizes signs does not evaluate the derivative again.
func (c *Constraint) FixDirectionForSign(sign int, env expr.IntervalEnv) int {
	if sign == 0 {
		return 0
	}
	switch c.Rel {
	case LE, LT:
		// Need the difference to go down.
		return -sign
	case GE, GT:
		return sign
	case EQ:
		e := expr.EvalInterval(c.diff, env)
		if e.IsEmpty() {
			return 0
		}
		m := e.Mid()
		switch {
		case m > 0:
			return -sign
		case m < 0:
			return sign
		default:
			return 0
		}
	}
	return 0
}

// Margin returns how far the constraint currently is from its boundary:
// negative values mean satisfied with that much slack, positive values
// mean violated by that much (for EQ it is |Lhs-Rhs|). It evaluates the
// midpoint of the interval enclosure, giving designers the trade-off
// margins mentioned in §1 ("use of trade-offs produced by constraint
// margins").
func (c *Constraint) Margin(env expr.IntervalEnv) float64 {
	e := expr.EvalInterval(c.diff, env)
	if e.IsEmpty() {
		return math.Inf(1)
	}
	m := e.Mid()
	switch c.Rel {
	case LE, LT:
		return m
	case GE, GT:
		return -m
	case EQ:
		return math.Abs(m)
	case NE:
		return -math.Abs(m)
	}
	return 0
}
