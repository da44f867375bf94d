package dcm

import (
	"sort"
	"strings"

	"repro/internal/constraint"
	"repro/internal/domain"
	"repro/internal/dpm"
	"repro/internal/expr"
)

// A view mixes structure (relevance, β, ownership, how a fix direction
// expands through derived-property chains) with state (bindings,
// feasible subspaces, statuses, derivative signs over current domains).
// A viewPlan holds the structure half of one designer's views, so a view
// costs one pass over it with each monotone sign and each fix-step
// gradient evaluated at most once (DESIGN §6, term 3). Plans are keyed by
// the identity of d.Net and its structure generation: an added property
// or constraint, or a replaced d.Net, rebuilds them on the next view.

// viewPlans is one DPM's plan cache, kept in its ViewPlans slot.
type viewPlans struct {
	net   *constraint.Network
	gen   int64
	plans map[string]*viewPlan
}

// planFor returns the designer's plan for d's current network, building
// it — and dropping the plans of an earlier network or generation —
// when there is none.
func planFor(d *dpm.DPM, designer string) *viewPlan {
	vp, _ := d.ViewPlans().(*viewPlans)
	if vp == nil || vp.net != d.Net || vp.gen != d.Net.Generation() {
		vp = &viewPlans{net: d.Net, gen: d.Net.Generation(), plans: map[string]*viewPlan{}}
		d.SetViewPlans(vp)
	}
	p := vp.plans[designer]
	if p == nil {
		p = newViewPlan(d, designer)
		vp.plans[designer] = p
	}
	return p
}

// viewPlan is the structure of one designer's view, plus the workspace
// of the view being built from it.
type viewPlan struct {
	// problems are the problems the designer owns.
	problems []*dpm.Problem
	// props are the properties of concern, sorted by name; onTotal sums
	// their len(on).
	props   []propPlan
	onTotal int
	// cons are the relevant constraints in network insertion order;
	// consIdx finds them by name.
	cons    []consPlan
	consIdx map[string]int
	// signs are the (constraint, argument) pairs whose monotone sign a
	// view can ask for, each evaluated at most once per view.
	signs []signSlot
	// grads are the derivatives fix steps are estimated from (nil when
	// not expressible), derived on the first violation that needs them
	// and evaluated at most once per view; gradIdx finds them by
	// (expression, variable).
	grads   []expr.Node
	gradIdx map[gradKey]int

	// The workspace. stamp numbers the view being built; a sign, a
	// gradient or a constraint's fix directions is current when its
	// ...At entry equals stamp.
	stamp   uint64
	signAt  []uint64
	sign    []int8
	gradAt  []uint64
	grad    []float64
	dirsAt  []uint64
	dirs    []int // per constraint, at consPlan.off
	rootDir []int
}

// propPlan is one property of concern.
type propPlan struct {
	name     string
	prop     *constraint.Property
	writable bool
	beta     int
	betaInd  int
	// on holds the sign slot of each constraint on the property, in
	// ConstraintsOn order.
	on []int
}

// consPlan is one relevant constraint and its fix-direction walk.
type consPlan struct {
	c *constraint.Constraint
	// isDef marks the defining equality of a derived property, which
	// carries no satisfaction preference.
	isDef bool
	cross bool
	// roots holds the sign slot of each argument the walk starts from
	// (every argument except a derived property this constraint defines).
	roots []int
	// leaves are the distinct properties the walk reaches, in first-visit
	// order; steps is the walk itself, one entry per leaf visit in visit
	// order, so merging steps in order reproduces the recursive walk.
	leaves []leaf
	steps  []dirStep
	// off is where this constraint's directions live in viewPlan.dirs.
	off int
	// fix is the fix-step walk, built on the first violation.
	fix []stepLeaf
}

// leaf is a property a fix-direction walk ends at; prop is its index in
// viewPlan.props, or -1 when it is not of concern.
type leaf struct {
	name string
	prop int
}

// dirStep is one path of the fix-direction walk: from root argument
// root through the defining constraints' sign slots in path to leaf.
// The leaf's direction is the root's fix direction times the negated
// sign of each step (the formula's sign is the negated sign of
// prop − formula).
type dirStep struct {
	leaf int
	root int
	path []int
}

// stepLeaf is one path of the fix-step walk: the gradient slots whose
// product is the sensitivity of the constraint to the leaf property.
type stepLeaf struct {
	name string
	path []int
}

// signSlot is the monotone sign of one constraint in one argument.
type signSlot struct {
	c    *constraint.Constraint
	eval func() int
}

type signKey struct {
	c   *constraint.Constraint
	arg string
}

type gradKey struct {
	node expr.Node
	v    string
}

// maxChainDepth bounds the expansion through derived-property chains.
const maxChainDepth = 8

// newViewPlan derives the structure of designer's views on d.
func newViewPlan(d *dpm.DPM, designer string) *viewPlan {
	net := d.Net
	p := &viewPlan{consIdx: map[string]int{}, gradIdx: map[gradKey]int{}}
	signIdx := map[signKey]int{}
	slot := func(c *constraint.Constraint, arg string) int {
		k := signKey{c, arg}
		s, ok := signIdx[k]
		if !ok {
			s = len(p.signs)
			signIdx[k] = s
			p.signs = append(p.signs, signSlot{c: c, eval: net.MonotoneSignFunc(c, arg)})
		}
		return s
	}

	p.problems = d.ProblemsOwnedBy(designer)
	writable := map[string]bool{} // outputs of own problems
	for _, pr := range p.problems {
		for _, o := range pr.Outputs {
			writable[o] = true
		}
	}

	concern, relevant := Concern(d, designer)
	names := make([]string, 0, len(concern))
	for name := range concern {
		names = append(names, name)
	}
	sort.Strings(names)
	propIdx := map[string]int{}
	for _, name := range names {
		prop := net.Property(name)
		if prop == nil {
			continue
		}
		pp := propPlan{
			name:     name,
			prop:     prop,
			writable: writable[name],
			beta:     net.Beta(name),
			betaInd:  net.BetaIndirect(name),
		}
		for _, c := range net.ConstraintsOn(name) {
			pp.on = append(pp.on, slot(c, name))
		}
		propIdx[name] = len(p.props)
		p.props = append(p.props, pp)
		p.onTotal += len(pp.on)
	}

	for _, c := range net.Constraints() {
		if !relevant[c.Name] {
			continue
		}
		cp := consPlan{
			c:     c,
			isDef: d.DefConstraint(strings.TrimSuffix(c.Name, ".def")) == c,
			cross: d.IsCrossSubsystem(c),
		}
		leafIdx := map[string]int{}
		var walk func(prop string, root int, path []int, depth int)
		walk = func(prop string, root int, path []int, depth int) {
			def := d.DefConstraint(prop)
			if def == nil || depth > maxChainDepth {
				li, ok := leafIdx[prop]
				if !ok {
					li = len(cp.leaves)
					leafIdx[prop] = li
					pi, ok := propIdx[prop]
					if !ok {
						pi = -1
					}
					cp.leaves = append(cp.leaves, leaf{name: prop, prop: pi})
				}
				cp.steps = append(cp.steps, dirStep{leaf: li, root: root, path: append([]int(nil), path...)})
				return
			}
			for _, a := range def.Args() {
				if a != prop {
					walk(a, root, append(path, slot(def, a)), depth+1)
				}
			}
		}
		for _, a := range c.Args() {
			// A derived property is not a handle on its own definition:
			// its value follows from the formula, so the walk starts from
			// the definition's other arguments only.
			if d.DefConstraint(a) == c {
				continue
			}
			root := len(cp.roots)
			cp.roots = append(cp.roots, slot(c, a))
			walk(a, root, nil, 0)
		}
		cp.off = len(p.dirs)
		p.dirs = append(p.dirs, make([]int, len(cp.leaves))...)
		if len(cp.roots) > len(p.rootDir) {
			p.rootDir = make([]int, len(cp.roots))
		}
		p.consIdx[c.Name] = len(p.cons)
		p.cons = append(p.cons, cp)
	}
	p.dirsAt = make([]uint64, len(p.cons))
	p.signAt = make([]uint64, len(p.signs))
	p.sign = make([]int8, len(p.signs))
	return p
}

// view builds one view from the plan and d's current state.
func (p *viewPlan) view(d *dpm.DPM, designer string) *View {
	net := d.Net
	p.stamp++
	v := &View{
		Designer: designer,
		ADPM:     d.Mode == dpm.ADPM,
		Props:    make(map[string]*PropInfo, len(p.props)),
	}

	for _, pr := range p.problems {
		pi := ProblemInfo{
			Name:        pr.Name,
			Status:      pr.Status(),
			Outputs:     append([]string(nil), pr.Outputs...),
			Constraints: append([]string(nil), pr.Constraints...),
		}
		for _, o := range pr.Outputs {
			if prop := net.Property(o); prop != nil && !prop.IsBound() {
				pi.UnboundOutputs = append(pi.UnboundOutputs, o)
			}
		}
		for _, cn := range pr.Constraints {
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

	// The properties share one allocation each for their infos, bound
	// values and monotone lists.
	infos := make([]PropInfo, len(p.props))
	var bounds []domain.Value
	names := make([]string, 0, p.onTotal)
	for i := range p.props {
		pp := &p.props[i]
		prop := pp.prop
		pi := &infos[i]
		*pi = PropInfo{
			Name:         pp.name,
			Object:       prop.Object,
			Owner:        prop.Owner,
			Init:         prop.Init,
			Beta:         pp.beta,
			BetaIndirect: pp.betaInd,
			Writable:     pp.writable,
		}
		if v.ADPM {
			pi.Feasible = prop.Feasible()
		} else {
			pi.Feasible = prop.Init
		}
		pi.RelFeasible = pi.Feasible.RelativeSize(prop.Init)
		if bv, ok := prop.Value(); ok {
			if bounds == nil {
				bounds = make([]domain.Value, len(p.props))
			}
			bounds[i] = bv
			pi.Bound = &bounds[i]
		}
		pi.IncreasingIn, names = p.signed(pp.on, +1, names)
		pi.DecreasingIn, names = p.signed(pp.on, -1, names)
		v.Props[pp.name] = pi
	}

	// SatVotes: the helpful direction summed over every relevant
	// requirement constraint, expanded to leaf properties. Defining
	// equalities are skipped — the DPM keeps them satisfied by
	// construction, so they carry no preference.
	for i := range p.cons {
		cp := &p.cons[i]
		if cp.isDef {
			continue
		}
		dirs := p.directions(i, net)
		for k, l := range cp.leaves {
			if l.prop >= 0 {
				infos[l.prop].SatVotes += dirs[k]
			}
		}
	}

	// Relevant violations, with derived arguments expanded through
	// their defining formulas to the leaf properties a designer can
	// actually move (chain rule over monotone signs). α and fix votes
	// are accumulated over the expanded violations, so a violated gain
	// spec counts against the transistor width that determines the gain
	// (the §2.3.2 indirect-connection extension).
	for _, cn := range net.Violations() {
		i, ok := p.consIdx[cn]
		if !ok {
			continue
		}
		cp := &p.cons[i]
		dirs := p.directions(i, net)
		fix := make(map[string]int, len(cp.leaves))
		for k, l := range cp.leaves {
			fix[l.name] = dirs[k]
			if l.prop >= 0 {
				infos[l.prop].Alpha++
				infos[l.prop].FixVotes += dirs[k]
			}
		}
		margin := cp.c.Margin(net)
		v.Violations = append(v.Violations, ViolationInfo{
			Constraint:     cn,
			Args:           append([]string(nil), cp.c.Args()...),
			CrossSubsystem: cp.cross,
			FixDirections:  fix,
			FixSteps:       p.fixSteps(d, i, margin),
			Margin:         margin,
		})
	}

	if v.ADPM {
		v.Resynthesize = func(problem string) map[string]float64 {
			return resynthesize(d, problem)
		}
	}
	return v
}

// signOf returns the monotone sign of slot s, evaluating it once per
// view.
func (p *viewPlan) signOf(s int) int {
	if p.signAt[s] != p.stamp {
		p.signAt[s] = p.stamp
		p.sign[s] = int8(p.signs[s].eval())
	}
	return int(p.sign[s])
}

// signed appends to buf the name of each constraint among slots whose
// monotone sign is want, and returns those names as a slice of their own
// (nil when there are none) together with the extended buf.
func (p *viewPlan) signed(slots []int, want int, buf []string) ([]string, []string) {
	start := len(buf)
	for _, s := range slots {
		if p.signOf(s) == want {
			buf = append(buf, p.signs[s].c.Name)
		}
	}
	if len(buf) == start {
		return nil, buf
	}
	return buf[start:len(buf):len(buf)], buf
}

// directions returns constraint i's fix direction for each of its
// leaves: the direction of value change expected to help satisfy it.
// To raise a derived value, each formula input moves in the direction
// of its monotone sign; an unknown sign anywhere on a path makes that
// path's advice 0, and paths that disagree on a leaf leave it 0 until a
// later path gives non-zero advice.
func (p *viewPlan) directions(i int, net *constraint.Network) []int {
	cp := &p.cons[i]
	dirs := p.dirs[cp.off : cp.off+len(cp.leaves)]
	if p.dirsAt[i] == p.stamp {
		return dirs
	}
	p.dirsAt[i] = p.stamp
	for r, s := range cp.roots {
		p.rootDir[r] = cp.c.FixDirectionForSign(p.signOf(s), net)
	}
	const unset = 2
	for k := range dirs {
		dirs[k] = unset
	}
	for _, st := range cp.steps {
		dir := p.rootDir[st.root]
		for _, s := range st.path {
			if dir == 0 {
				break
			}
			dir *= -p.signOf(s)
		}
		if cur := dirs[st.leaf]; cur == unset || cur == 0 {
			dirs[st.leaf] = dir
		} else if dir != 0 && dir != cur {
			dirs[st.leaf] = 0 // conflicting advice: direction unknown
		}
	}
	return dirs
}

// fixSteps estimates, per leaf property, the movement needed to close a
// violation of constraint i by moving that property alone:
// margin / |∂(lhs−rhs)/∂property|, with the chain rule composing through
// derived-property formulas. Unknown sensitivities yield no entry.
func (p *viewPlan) fixSteps(d *dpm.DPM, i int, margin float64) map[string]float64 {
	out := map[string]float64{}
	if margin <= 0 {
		return out
	}
	cp := &p.cons[i]
	if cp.fix == nil {
		cp.fix = p.stepWalk(d, cp.c)
	}
	env := midEnv{net: d.Net}
	for _, sl := range cp.fix {
		grad := p.gradOf(sl.path[0], env)
		for _, g := range sl.path[1:] {
			if grad == 0 {
				break
			}
			grad *= p.gradOf(g, env)
		}
		if grad == 0 {
			continue
		}
		step := margin / grad
		if cur, ok := out[sl.name]; !ok || step > cur {
			out[sl.name] = step
		}
	}
	return out
}

// stepWalk flattens the fix-step expansion of c: from each argument (but
// a derived property c defines) through the formulas of derived
// properties down to the leaves, one gradient slot per hop.
func (p *viewPlan) stepWalk(d *dpm.DPM, c *constraint.Constraint) []stepLeaf {
	out := []stepLeaf{}
	var walk func(prop string, path []int, depth int)
	walk = func(prop string, path []int, depth int) {
		if depth > maxChainDepth {
			return
		}
		def := d.DefConstraint(prop)
		if def == nil {
			out = append(out, stepLeaf{name: prop, path: append([]int(nil), path...)})
			return
		}
		formula := def.Rhs
		for _, a := range expr.Vars(formula) {
			walk(a, append(path, p.gradSlot(formula, a)), depth+1)
		}
	}
	diff := &expr.Binary{Op: '-', X: c.Lhs, Y: c.Rhs}
	for _, a := range c.Args() {
		if d.DefConstraint(a) == c {
			continue
		}
		walk(a, []int{p.gradSlot(diff, a)}, 0)
	}
	return out
}

// gradSlot returns the slot of ∂node/∂v, deriving it on first use.
func (p *viewPlan) gradSlot(node expr.Node, v string) int {
	k := gradKey{node, v}
	if g, ok := p.gradIdx[k]; ok {
		return g
	}
	g := len(p.grads)
	p.gradIdx[k] = g
	p.grads = append(p.grads, expr.Diff(node, v))
	p.gradAt = append(p.gradAt, 0)
	p.grad = append(p.grad, 0)
	return g
}

// gradOf returns |∂node/∂v| of slot g at the linearization point, or 0
// when unknown, evaluating it once per view.
func (p *viewPlan) gradOf(g int, env midEnv) float64 {
	if p.gradAt[g] == p.stamp {
		return p.grad[g]
	}
	p.gradAt[g] = p.stamp
	p.grad[g] = 0
	if dn := p.grads[g]; dn != nil {
		if x, err := expr.Eval(dn, env); err == nil && x == x && x != 0 {
			if x < 0 {
				x = -x
			}
			p.grad[g] = x
		}
	}
	return p.grad[g]
}
