// Package dddl implements the design-description language used to
// configure TeamSim for a scenario's design area (paper §3.1.2). A DDDL
// document declares design objects and their properties, the constraint
// network, constraint monotonicity, the problem hierarchy with its
// decompositions and ownership, and initial top-level requirement
// values.
//
// The syntax is line-oriented:
//
//	# comment
//	scenario receiver
//
//	object LNA_Mixer owner circuit {
//	    property Diff_pair_W real [0.5, 10]
//	    property Freq_ind    real [0.05, 0.5]
//	    property Esr         enum {0.1, 0.2, 0.5}
//	    property Levels      string {"Transistor", "Geometry"}
//	}
//
//	constraint PowerBudget: Pf + Ps <= PM
//	monotonic FilterLoss decreasing Resonator_len
//	monotonic FilterLoss increasing Beam_width
//
//	problem AnalogFE owner circuit {
//	    outputs { Diff_pair_W, Freq_ind }
//	    constraints { PowerBudget }
//	}
//
//	decompose Top -> AnalogFE, Filter
//	require PM = 200
package dddl

import (
	"fmt"

	"repro/internal/constraint"
	"repro/internal/domain"
	"repro/internal/expr"
)

// PropertyDecl declares one design property.
type PropertyDecl struct {
	Name   string
	Object string // declaring object ("" for top-level declarations)
	Owner  string // owning subsystem/designer
	Domain domain.Domain
	// Formula, when non-empty, makes this a derived performance
	// property: its value is computed from other properties by a tool
	// run (paper Fig. 2's performance parameters) rather than assigned
	// by a designer. BuildNetwork adds a defining equality constraint
	// "<Name>.def: Name == Formula" so ADPM propagation can push
	// requirement bounds through to design variables.
	Formula string
	Line    int
}

// IsDerived reports whether the property carries a defining formula.
func (p *PropertyDecl) IsDerived() bool { return p.Formula != "" }

// ConstraintDecl declares one design constraint.
type ConstraintDecl struct {
	Name string
	// Src is the raw "lhs REL rhs" text.
	Src string
	// Mono maps property name to the declared direction of value change
	// that helps satisfy the constraint: +1 increasing, -1 decreasing.
	Mono map[string]int
	Line int
}

// ProblemDecl declares one design problem p_i = (I_i, O_i, T_i).
type ProblemDecl struct {
	Name        string
	Owner       string
	Inputs      []string
	Outputs     []string
	Constraints []string
	Line        int
}

// Decomposition declares a parent problem split into ordered children.
type Decomposition struct {
	Parent   string
	Children []string
	Line     int
}

// Requirement assigns an initial value to a top-level property.
type Requirement struct {
	Property string
	Value    domain.Value
	Line     int
}

// ObjectDecl names a design object and its owner.
type ObjectDecl struct {
	Name  string
	Owner string
	Line  int
}

// Scenario is a parsed DDDL document.
type Scenario struct {
	Name           string
	Objects        []*ObjectDecl
	Properties     []*PropertyDecl
	Constraints    []*ConstraintDecl
	Problems       []*ProblemDecl
	Decompositions []*Decomposition
	Requirements   []*Requirement
}

// Property returns the named property declaration, or nil.
func (s *Scenario) Property(name string) *PropertyDecl {
	for _, p := range s.Properties {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Problem returns the named problem declaration, or nil.
func (s *Scenario) Problem(name string) *ProblemDecl {
	for _, p := range s.Problems {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// ConstraintDecl returns the named constraint declaration, or nil.
func (s *Scenario) ConstraintDecl(name string) *ConstraintDecl {
	for _, c := range s.Constraints {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Owners returns the distinct problem owners in declaration order.
func (s *Scenario) Owners() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range s.Problems {
		if p.Owner != "" && !seen[p.Owner] {
			seen[p.Owner] = true
			out = append(out, p.Owner)
		}
	}
	return out
}

// Validate cross-checks all references in the scenario.
func (s *Scenario) Validate() error {
	_, err := s.validate()
	return err
}

// validate is Validate returning the constraints it parsed, one per
// declaration in s.Constraints order, so BuildNetwork need not parse
// them a second time.
func (s *Scenario) validate() ([]*constraint.Constraint, error) {
	props := map[string]*PropertyDecl{}
	for _, p := range s.Properties {
		if _, dup := props[p.Name]; dup {
			return nil, fmt.Errorf("dddl: line %d: duplicate property %q", p.Line, p.Name)
		}
		props[p.Name] = p
	}
	// Derived property formulas: must parse, reference known numeric
	// properties, and be acyclic.
	for _, p := range s.Properties {
		if !p.IsDerived() {
			continue
		}
		if !p.Domain.IsNumeric() {
			return nil, fmt.Errorf("dddl: line %d: derived property %q must be numeric", p.Line, p.Name)
		}
		node, err := expr.Parse(p.Formula)
		if err != nil {
			return nil, fmt.Errorf("dddl: line %d: derived %q: %w", p.Line, p.Name, err)
		}
		for _, a := range expr.Vars(node) {
			ap, ok := props[a]
			if !ok {
				return nil, fmt.Errorf("dddl: line %d: derived %q references unknown property %q", p.Line, p.Name, a)
			}
			if !ap.Domain.IsNumeric() {
				return nil, fmt.Errorf("dddl: line %d: derived %q references non-numeric property %q", p.Line, p.Name, a)
			}
			if a == p.Name {
				return nil, fmt.Errorf("dddl: line %d: derived %q references itself", p.Line, p.Name)
			}
		}
	}
	if err := s.checkDerivedAcyclic(props); err != nil {
		return nil, err
	}
	cons := map[string]*ConstraintDecl{}
	parsedCons := make([]*constraint.Constraint, 0, len(s.Constraints))
	for _, c := range s.Constraints {
		if _, dup := cons[c.Name]; dup {
			return nil, fmt.Errorf("dddl: line %d: duplicate constraint %q", c.Line, c.Name)
		}
		cons[c.Name] = c
		parsed, err := constraint.ParseConstraint(c.Name, c.Src)
		if err != nil {
			return nil, fmt.Errorf("dddl: line %d: %w", c.Line, err)
		}
		parsedCons = append(parsedCons, parsed)
		for _, a := range parsed.Args() {
			pd, ok := props[a]
			if !ok {
				return nil, fmt.Errorf("dddl: line %d: constraint %q references unknown property %q", c.Line, c.Name, a)
			}
			if !pd.Domain.IsNumeric() {
				return nil, fmt.Errorf("dddl: line %d: constraint %q references non-numeric property %q", c.Line, c.Name, a)
			}
		}
		for mp := range c.Mono {
			if !parsed.HasArg(mp) {
				return nil, fmt.Errorf("dddl: constraint %q: monotonic declaration for %q which is not an argument", c.Name, mp)
			}
		}
	}
	probs := map[string]*ProblemDecl{}
	for _, p := range s.Problems {
		if _, dup := probs[p.Name]; dup {
			return nil, fmt.Errorf("dddl: line %d: duplicate problem %q", p.Line, p.Name)
		}
		probs[p.Name] = p
		for _, set := range [][]string{p.Inputs, p.Outputs} {
			for _, prop := range set {
				if _, ok := props[prop]; !ok {
					return nil, fmt.Errorf("dddl: line %d: problem %q references unknown property %q", p.Line, p.Name, prop)
				}
			}
		}
		for _, cn := range p.Constraints {
			if _, ok := cons[cn]; !ok {
				return nil, fmt.Errorf("dddl: line %d: problem %q references unknown constraint %q", p.Line, p.Name, cn)
			}
		}
	}
	for _, d := range s.Decompositions {
		if _, ok := probs[d.Parent]; !ok {
			return nil, fmt.Errorf("dddl: line %d: decomposition of unknown problem %q", d.Line, d.Parent)
		}
		for _, c := range d.Children {
			if _, ok := probs[c]; !ok {
				return nil, fmt.Errorf("dddl: line %d: decomposition into unknown problem %q", d.Line, c)
			}
		}
	}
	for _, r := range s.Requirements {
		pd, ok := props[r.Property]
		if !ok {
			return nil, fmt.Errorf("dddl: line %d: requirement for unknown property %q", r.Line, r.Property)
		}
		if r.Value.IsString() != (pd.Domain.Kind() == domain.DiscreteString) {
			return nil, fmt.Errorf("dddl: line %d: requirement value kind mismatch for %q", r.Line, r.Property)
		}
	}
	return parsedCons, nil
}

// checkDerivedAcyclic rejects cyclic derived-property definitions.
func (s *Scenario) checkDerivedAcyclic(props map[string]*PropertyDecl) error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(name string) error
	visit = func(name string) error {
		switch color[name] {
		case gray:
			return fmt.Errorf("dddl: derived property cycle through %q", name)
		case black:
			return nil
		}
		p := props[name]
		if p == nil || !p.IsDerived() {
			color[name] = black
			return nil
		}
		color[name] = gray
		node, err := expr.Parse(p.Formula)
		if err != nil {
			return err
		}
		for _, a := range expr.Vars(node) {
			if err := visit(a); err != nil {
				return err
			}
		}
		color[name] = black
		return nil
	}
	for _, p := range s.Properties {
		if p.IsDerived() {
			if err := visit(p.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

// DerivedOrder returns the derived property declarations in dependency
// order (a derived property appears after every derived property its
// formula references). Validate must have succeeded.
func (s *Scenario) DerivedOrder() []*PropertyDecl {
	byName := map[string]*PropertyDecl{}
	for _, p := range s.Properties {
		byName[p.Name] = p
	}
	var order []*PropertyDecl
	done := map[string]bool{}
	var visit func(p *PropertyDecl)
	visit = func(p *PropertyDecl) {
		if done[p.Name] {
			return
		}
		done[p.Name] = true
		node, err := expr.Parse(p.Formula)
		if err != nil {
			return
		}
		for _, a := range expr.Vars(node) {
			if dp := byName[a]; dp != nil && dp.IsDerived() {
				visit(dp)
			}
		}
		order = append(order, p)
	}
	for _, p := range s.Properties {
		if p.IsDerived() {
			visit(p)
		}
	}
	return order
}

// BuildNetwork instantiates the constraint network declared by the
// scenario: every property with its initial range E_i, every constraint
// with its monotonicity overrides, every derived property's defining
// equality, and every requirement bound.
func (s *Scenario) BuildNetwork() (*constraint.Network, error) {
	parsed, err := s.validate()
	if err != nil {
		return nil, err
	}
	net := constraint.NewNetwork()
	for _, pd := range s.Properties {
		p := constraint.NewProperty(pd.Name, pd.Domain)
		p.Object = pd.Object
		p.Owner = pd.Owner
		if err := net.AddProperty(p); err != nil {
			return nil, err
		}
	}
	for _, pd := range s.Properties {
		if !pd.IsDerived() {
			continue
		}
		c, err := constraint.ParseConstraint(pd.Name+".def", pd.Name+" == "+pd.Formula)
		if err != nil {
			return nil, err
		}
		if err := net.AddConstraint(c); err != nil {
			return nil, err
		}
	}
	for i, cd := range s.Constraints {
		c := parsed[i]
		if len(cd.Mono) > 0 {
			c.MonoOverride = map[string]int{}
			for k, v := range cd.Mono {
				c.MonoOverride[k] = v
			}
		}
		if err := net.AddConstraint(c); err != nil {
			return nil, err
		}
	}
	for _, r := range s.Requirements {
		if err := net.Bind(r.Property, r.Value); err != nil {
			return nil, err
		}
	}
	return net, nil
}
