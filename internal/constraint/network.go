package constraint

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/domain"
	"repro/internal/expr"
	"repro/internal/interval"
	"repro/internal/trace"
)

// Network is the network of constraints C_n of a design state (paper
// §2.1): the set of design properties together with the constraints
// relating them. It tracks each constraint's last computed status, each
// property's feasible subspace, and the cumulative number of constraint
// evaluations — the paper's proxy for verification-tool runs.
//
// Property and constraint names are interned to dense integer ids at
// registration time (insertion order), so the propagation hot path
// works on int-indexed slices instead of string-keyed maps. The
// structure tables (id maps, adjacency, compiled expressions) are
// immutable per structural generation and shared between clones
// copy-on-write; only the mutable per-state data (feasible subspaces,
// bindings, statuses, the evaluation counter) is copied per clone.
type Network struct {
	// propIDs/conIDs intern names to dense ids in insertion order.
	propIDs map[string]int
	conIDs  map[string]int
	// propList holds the properties by id; the per-network mutable
	// state (feasible, bound) lives in these objects.
	propList []*Property
	// conList holds the (immutable) constraints by id.
	conList []*Constraint
	// byProp indexes constraint ids by argument property id.
	byProp [][]int
	// conArgs holds each constraint's argument property ids, in the
	// constraint's sorted-name Args() order.
	conArgs [][]int
	// compiled holds each constraint's canonical Lhs-Rhs expression
	// with property ids baked in (expr.Compile), used by the id-based
	// evaluation and narrowing fast paths.
	compiled []expr.Node
	// status holds the last computed status per constraint id.
	status []Status
	// evals counts constraint evaluations (status computations and
	// propagation revises).
	evals int64

	// gen is the structure generation: it increments whenever a
	// property or constraint is added. Clones copy it; CloneInto uses
	// it to detect that a destination's structure is still reusable.
	gen int64
	// sharedStructure marks the structure tables as shared with a
	// clone; the next structural mutation copies them first. It is the
	// one field a clone writes on its source, and many goroutines may
	// clone one source at once (session templates), so it is atomic.
	sharedStructure atomic.Bool
	// cloneSrc/cloneSrcGen identify the network this one was cloned
	// from and its generation at that time (CloneInto fast path).
	cloneSrc    *Network
	cloneSrcGen int64

	// scratch holds the reusable propagation workspace; never shared
	// between networks.
	scratch *propScratch
	// tracer, when non-nil, receives propagate/revise events. It is
	// never copied by CloneInto: scratch networks (movement-window and
	// resynthesis exploration) stay untraced, and their work surfaces as
	// the DPM's aggregated window-refresh events instead.
	tracer *trace.Recorder
	// views holds lazily built structure-derived lookups used by the
	// guidance layer (per-property constraint slices, indirect-β counts).
	// Validated against gen; never shared between networks.
	views *viewCache
	// regions caches the connected-region partition of the constraint
	// graph (regions.go). Validated against gen; never shared between
	// networks.
	regions *regionCache

	// Dirty-set tracking for incremental re-propagation. dirty/dirtyList
	// record properties whose region must be re-derived: a binding
	// changed through the Network API, or a constraint status on them was
	// written outside propagation (SetStatus), since the
	// last fixpoint marker; allDirty subsumes the list after a bulk
	// change (ResetFeasible, Restore, EvaluateAll). fixValid marks that
	// the current feasible subspaces are the fixpoint of a full
	// reset-and-propagate at generation fixGen under options fixOpts —
	// the precondition for an incremental run to skip clean regions.
	// Only Propagate with Incremental set establishes the marker, because
	// only that entry point owns the initial ResetFeasible. CloneInto
	// copies marker and dirty set: a copy of a fixpoint is a fixpoint.
	// Direct Property mutations (Property.Bind, Property.SetFeasible on
	// an unbound property) bypass this tracking, so code paths that use
	// them must not opt in.
	dirty     []bool
	dirtyList []int
	allDirty  bool
	fixValid  bool
	fixGen    int64
	fixOpts   PropagateOptions
}

// viewCache memoizes pure-structure queries that view building issues
// for every property on every operation. It is rebuilt whenever the
// structure generation moves.
type viewCache struct {
	gen     int64
	conOn   [][]*Constraint
	betaInd []int
}

// NewNetwork returns an empty constraint network.
func NewNetwork() *Network {
	return &Network{
		propIDs: map[string]int{},
		conIDs:  map[string]int{},
	}
}

// ensureOwnedStructure copies the shared structure tables before a
// structural mutation so sibling clones keep their own view.
func (n *Network) ensureOwnedStructure() {
	if !n.sharedStructure.Load() {
		return
	}
	propIDs := make(map[string]int, len(n.propIDs))
	for k, v := range n.propIDs {
		propIDs[k] = v
	}
	conIDs := make(map[string]int, len(n.conIDs))
	for k, v := range n.conIDs {
		conIDs[k] = v
	}
	n.propIDs = propIDs
	n.conIDs = conIDs
	n.conList = append([]*Constraint(nil), n.conList...)
	byProp := make([][]int, len(n.byProp))
	for i, cs := range n.byProp {
		byProp[i] = append([]int(nil), cs...)
	}
	n.byProp = byProp
	conArgs := make([][]int, len(n.conArgs))
	for i, as := range n.conArgs {
		conArgs[i] = append([]int(nil), as...)
	}
	n.conArgs = conArgs
	n.compiled = append([]expr.Node(nil), n.compiled...)
	n.sharedStructure.Store(false)
}

// AddProperty registers a property. Names must be unique.
func (n *Network) AddProperty(p *Property) error {
	if p.Name == "" {
		return fmt.Errorf("constraint: property with empty name")
	}
	if _, dup := n.propIDs[p.Name]; dup {
		return fmt.Errorf("constraint: duplicate property %q", p.Name)
	}
	n.ensureOwnedStructure()
	n.propIDs[p.Name] = len(n.propList)
	n.propList = append(n.propList, p)
	n.byProp = append(n.byProp, nil)
	n.gen++
	return nil
}

// AddConstraint registers a constraint. All argument properties must
// already exist and be numeric. New constraints start Consistent; the
// paper generates constraints dynamically as the design progresses, so
// adding to a live network is the normal case.
func (n *Network) AddConstraint(c *Constraint) error {
	if c.Name == "" {
		return fmt.Errorf("constraint: constraint with empty name")
	}
	if _, dup := n.conIDs[c.Name]; dup {
		return fmt.Errorf("constraint: duplicate constraint %q", c.Name)
	}
	argIDs := make([]int, len(c.Args()))
	for i, a := range c.Args() {
		pid, ok := n.propIDs[a]
		if !ok {
			return fmt.Errorf("constraint %s: unknown property %q", c.Name, a)
		}
		if !n.propList[pid].IsNumeric() {
			return fmt.Errorf("constraint %s: property %q is non-numeric", c.Name, a)
		}
		argIDs[i] = pid
	}
	n.ensureOwnedStructure()
	ci := len(n.conList)
	n.conIDs[c.Name] = ci
	n.conList = append(n.conList, c)
	n.conArgs = append(n.conArgs, argIDs)
	n.compiled = append(n.compiled, expr.Compile(c.diff, func(name string) (int, bool) {
		id, ok := n.propIDs[name]
		return id, ok
	}))
	for _, pid := range argIDs {
		n.byProp[pid] = append(n.byProp[pid], ci)
	}
	n.status = append(n.status, Consistent)
	n.gen++
	return nil
}

// propID returns the dense id of the named property, or -1.
func (n *Network) propID(name string) int {
	if id, ok := n.propIDs[name]; ok {
		return id
	}
	return -1
}

// Property returns the named property, or nil.
func (n *Network) Property(name string) *Property {
	if id, ok := n.propIDs[name]; ok {
		return n.propList[id]
	}
	return nil
}

// Constraint returns the named constraint, or nil.
func (n *Network) Constraint(name string) *Constraint {
	if id, ok := n.conIDs[name]; ok {
		return n.conList[id]
	}
	return nil
}

// Properties returns all properties in insertion order.
func (n *Network) Properties() []*Property {
	return append([]*Property(nil), n.propList...)
}

// Constraints returns all constraints in insertion order.
func (n *Network) Constraints() []*Constraint {
	return append([]*Constraint(nil), n.conList...)
}

// NumProperties returns the number of properties.
func (n *Network) NumProperties() int { return len(n.propList) }

// NumConstraints returns the number of constraints.
func (n *Network) NumConstraints() int { return len(n.conList) }

// getViewCache returns the structure-query cache, resetting it when the
// structure generation has moved since it was built.
func (n *Network) getViewCache() *viewCache {
	vc := n.views
	if vc == nil || vc.gen != n.gen || len(vc.conOn) != len(n.propList) {
		vc = &viewCache{
			gen:     n.gen,
			conOn:   make([][]*Constraint, len(n.propList)),
			betaInd: make([]int, len(n.propList)),
		}
		for i := range vc.betaInd {
			vc.betaInd[i] = -1
		}
		n.views = vc
	}
	return vc
}

// ConstraintsOn returns the constraints in which the property appears,
// in insertion order. Its length is the paper's β_i (§2.3.2). The
// returned slice is cached until the next structural change and must
// not be modified by the caller.
func (n *Network) ConstraintsOn(prop string) []*Constraint {
	pid := n.propID(prop)
	if pid < 0 {
		return nil
	}
	ids := n.byProp[pid]
	if len(ids) == 0 {
		return nil
	}
	vc := n.getViewCache()
	if vc.conOn[pid] == nil {
		out := make([]*Constraint, len(ids))
		for i, ci := range ids {
			out[i] = n.conList[ci]
		}
		vc.conOn[pid] = out
	}
	return vc.conOn[pid]
}

// Beta returns β_i — the number of constraints where prop appears.
func (n *Network) Beta(prop string) int {
	pid := n.propID(prop)
	if pid < 0 {
		return 0
	}
	return len(n.byProp[pid])
}

// BetaIndirect returns β_i extended with constraints indirectly related
// to prop through one intermediate constraint (the §2.3.2 extension):
// constraints sharing an argument with any constraint on prop.
func (n *Network) BetaIndirect(prop string) int {
	pid := n.propID(prop)
	if pid < 0 {
		return 0
	}
	vc := n.getViewCache()
	if b := vc.betaInd[pid]; b >= 0 {
		return b
	}
	direct := n.byProp[pid]
	seen := make([]bool, len(n.conList))
	for _, ci := range direct {
		seen[ci] = true
	}
	count := len(direct)
	for _, ci := range direct {
		for _, aid := range n.conArgs[ci] {
			for _, ci2 := range n.byProp[aid] {
				if !seen[ci2] {
					seen[ci2] = true
					count++
				}
			}
		}
	}
	vc.betaInd[pid] = count
	return count
}

// Alpha returns α_i — the number of constraints involving prop whose
// last computed status is Violated (paper eq. 3).
func (n *Network) Alpha(prop string) int {
	pid := n.propID(prop)
	if pid < 0 {
		return 0
	}
	count := 0
	for _, ci := range n.byProp[pid] {
		if n.status[ci] == Violated {
			count++
		}
	}
	return count
}

// Status returns the last computed status of the named constraint.
func (n *Network) Status(name string) Status {
	if ci, ok := n.conIDs[name]; ok {
		return n.status[ci]
	}
	return Consistent
}

// SetStatus records a status computed externally (e.g. by a
// verification operator). A full propagation would overwrite it, so the
// constraint's region is marked dirty without rebinding anything: the
// next incremental run re-derives the status exactly as a full run
// would.
func (n *Network) SetStatus(name string, s Status) {
	if ci, ok := n.conIDs[name]; ok {
		n.status[ci] = s
		n.markConstraintDirty(ci)
	}
}

// Violations returns the names of constraints currently marked Violated,
// in insertion order.
func (n *Network) Violations() []string {
	var out []string
	for ci, s := range n.status {
		if s == Violated {
			out = append(out, n.conList[ci].Name)
		}
	}
	return out
}

// NumViolations returns the number of constraints currently Violated.
func (n *Network) NumViolations() int {
	c := 0
	for _, s := range n.status {
		if s == Violated {
			c++
		}
	}
	return c
}

// SetTracer attaches a trace recorder to this network; nil detaches.
// Clones never inherit it (see CloneInto).
func (n *Network) SetTracer(tr *trace.Recorder) { n.tracer = tr }

// EvalCount returns the cumulative number of constraint evaluations.
func (n *Network) EvalCount() int64 { return n.evals }

// AddEvals adds externally performed evaluations to the counter.
func (n *Network) AddEvals(k int64) { n.evals += k }

// markDirty records a binding change of property id pid for incremental
// re-propagation.
func (n *Network) markDirty(pid int) {
	if n.allDirty {
		return
	}
	if len(n.dirty) < len(n.propList) {
		d := make([]bool, len(n.propList))
		copy(d, n.dirty)
		n.dirty = d
	}
	if !n.dirty[pid] {
		n.dirty[pid] = true
		n.dirtyList = append(n.dirtyList, pid)
	}
}

// markConstraintDirty marks the region of constraint ci dirty through
// one of its arguments. A constraint over no property belongs to no
// region, so only a full run re-evaluates it.
func (n *Network) markConstraintDirty(ci int) {
	if args := n.conArgs[ci]; len(args) > 0 {
		n.markDirty(args[0])
	} else {
		n.markAllDirty()
	}
}

// markAllDirty records a bulk state change: the next incremental
// propagation falls back to a full reset-and-propagate.
func (n *Network) markAllDirty() {
	n.allDirty = true
}

// clearDirty resets the dirty set after a marker-establishing run.
func (n *Network) clearDirty() {
	for _, pid := range n.dirtyList {
		if pid < len(n.dirty) {
			n.dirty[pid] = false
		}
	}
	n.dirtyList = n.dirtyList[:0]
	n.allDirty = false
}

// Bind assigns a value to a property.
func (n *Network) Bind(prop string, v domain.Value) error {
	id, ok := n.propIDs[prop]
	if !ok {
		return fmt.Errorf("constraint: bind of unknown property %q", prop)
	}
	if err := n.propList[id].Bind(v); err != nil {
		return err
	}
	n.markDirty(id)
	return nil
}

// BindReal assigns a numeric value to a property.
func (n *Network) BindReal(prop string, v float64) error {
	return n.Bind(prop, domain.Real(v))
}

// Unbind removes a property's assignment.
func (n *Network) Unbind(prop string) {
	if id, ok := n.propIDs[prop]; ok {
		n.propList[id].Unbind()
		n.markDirty(id)
	}
}

// ResetFeasible restores every property's feasible subspace to its
// initial range E_i. Propagation re-derives the reductions from scratch;
// this keeps feasible sets exact after a designer widens a choice.
func (n *Network) ResetFeasible() {
	for _, p := range n.propList {
		p.ResetFeasible()
	}
	n.markAllDirty()
}

// Domain implements expr.IntervalEnv over the network's current state:
// bound properties contribute their point value, unbound ones the hull
// of their feasible subspace (falling back to E_i when emptied).
func (n *Network) Domain(name string) interval.Interval {
	p := n.Property(name)
	if p == nil {
		return interval.Entire()
	}
	return p.CurrentInterval()
}

// DomainID implements expr.IndexedIntervalEnv: domain lookup by
// interned property id, bypassing the name map.
func (n *Network) DomainID(id int) interval.Interval {
	return n.propList[id].CurrentInterval()
}

// Value implements expr.FloatEnv over bound property values.
func (n *Network) Value(name string) (float64, bool) {
	p := n.Property(name)
	if p == nil || p.bound == nil || p.bound.IsString() {
		return 0, false
	}
	return p.bound.Num(), true
}

// EvaluateAll computes and records the status of every constraint (one
// evaluation each) and returns the names of violated constraints. The
// next incremental propagation falls back to a full run.
func (n *Network) EvaluateAll() []string {
	var violated []string
	for ci, c := range n.conList {
		n.evals++
		s := statusFromDiff(expr.EvalInterval(n.compiled[ci], n), c.Rel)
		n.status[ci] = s
		if s == Violated {
			violated = append(violated, c.Name)
		}
	}
	n.markAllDirty()
	return violated
}

// Snapshot captures the mutable state of the network: feasible
// subspaces, bindings, statuses, and the evaluation counter. The
// per-id slices are interpreted against insertion order, so a snapshot
// remains valid after properties or constraints are added (the added
// tail is simply absent from it).
type Snapshot struct {
	feasible []domain.Domain
	bound    []domain.Value
	isBound  []bool
	status   []Status
	evals    int64
}

// Snapshot returns a copy of the network's mutable state.
func (n *Network) Snapshot() *Snapshot {
	s := &Snapshot{
		feasible: make([]domain.Domain, len(n.propList)),
		bound:    make([]domain.Value, len(n.propList)),
		isBound:  make([]bool, len(n.propList)),
		status:   append([]Status(nil), n.status...),
		evals:    n.evals,
	}
	for i, p := range n.propList {
		s.feasible[i] = p.feasible
		if p.bound != nil {
			s.bound[i] = *p.bound
			s.isBound[i] = true
		}
	}
	return s
}

// Restore rewinds the network's mutable state to the snapshot.
// Properties or constraints added after the snapshot keep their current
// definition but properties revert to unbound/initial only if they
// existed at snapshot time.
func (n *Network) Restore(s *Snapshot) {
	for i, p := range n.propList {
		if i >= len(s.feasible) {
			break
		}
		p.feasible = s.feasible[i]
		if s.isBound[i] {
			v := s.bound[i]
			p.bound = &v
		} else {
			p.bound = nil
		}
	}
	for ci := range n.status {
		if ci < len(s.status) {
			n.status[ci] = s.status[ci]
		} else {
			n.status[ci] = Consistent
		}
	}
	n.evals = s.evals
	// The restored feasible subspaces are an arbitrary earlier state, so
	// the fixpoint marker no longer describes the network.
	n.markAllDirty()
	n.fixValid = false
}

// CanonicalClone returns an order-normalized deep copy: properties and
// constraints re-interned in sorted-name order, with feasible
// subspaces, bindings, constraint statuses, and the eval counter
// preserved. Declaration order is the one thing a canonical clone
// forgets — two networks that differ only in the order their
// properties and constraints were added have structurally identical
// canonical clones, so propagation on the clones seeds its worklist
// identically. The metamorphic suite uses this to separate the
// observables that may depend on declaration order (worklist seeding,
// hence revise schedules) from those that must not (fixpoint windows).
func (n *Network) CanonicalClone() *Network {
	out := NewNetwork()
	for _, name := range n.SortedPropertyNames() {
		if err := out.AddProperty(n.propList[n.propIDs[name]].clone()); err != nil {
			panic("constraint: CanonicalClone: " + err.Error())
		}
	}
	conNames := make([]string, 0, len(n.conList))
	for _, c := range n.conList {
		conNames = append(conNames, c.Name)
	}
	sort.Strings(conNames)
	for _, name := range conNames {
		ci := n.conIDs[name]
		if err := out.AddConstraint(n.conList[ci]); err != nil {
			panic("constraint: CanonicalClone: " + err.Error())
		}
		out.status[out.conIDs[name]] = n.status[ci]
	}
	out.evals = n.evals
	return out
}

// Clone returns an independent deep copy of the network. The immutable
// structure tables are shared copy-on-write; only properties' mutable
// state and constraint statuses are duplicated.
func (n *Network) Clone() *Network {
	c := &Network{}
	n.CloneInto(c)
	return c
}

// CloneInto makes dst an independent deep copy of n, reusing dst's
// existing allocations when dst was previously cloned from n and
// neither side has changed structure since (the scratch-network reuse
// fast path: per-operation movement-window exploration clones the same
// network once per bound variable). The fast path copies only mutable
// state — feasible subspaces, bindings, statuses, the eval counter —
// with no allocation beyond first-time bound-value boxes.
//
// Both paths carry the incremental fixpoint marker and the dirty set
// across: dst holds n's state verbatim, so an incremental Propagate on
// dst re-derives exactly the regions it would on n — plus whatever the
// caller edits on dst first. Concurrent CloneInto calls from one
// unchanging source into distinct destinations are safe: the fast path
// only reads the source, and the slow path's one write on it is the
// atomic sharedStructure flag.
func (n *Network) CloneInto(dst *Network) {
	if dst == n {
		return
	}
	if dst.cloneSrc == n && dst.cloneSrcGen == n.gen && dst.gen == n.gen {
		// Structure unchanged on both sides: overwrite mutable state.
		for i, p := range n.propList {
			dp := dst.propList[i]
			dp.feasible = p.feasible
			if p.bound != nil {
				if dp.bound == nil {
					b := *p.bound
					dp.bound = &b
				} else {
					*dp.bound = *p.bound
				}
			} else {
				dp.bound = nil
			}
		}
		copy(dst.status, n.status)
		dst.evals = n.evals
		n.copyMarkerInto(dst)
		return
	}

	// Slow path: rebuild dst's structure from n. Structure tables are
	// immutable per generation and shared copy-on-write.
	n.sharedStructure.Store(true)
	dst.propIDs = n.propIDs
	dst.conIDs = n.conIDs
	dst.conList = n.conList
	dst.byProp = n.byProp
	dst.conArgs = n.conArgs
	dst.compiled = n.compiled
	dst.sharedStructure.Store(true)
	dst.propList = make([]*Property, len(n.propList))
	for i, p := range n.propList {
		dst.propList[i] = p.clone()
	}
	dst.status = append(dst.status[:0], n.status...)
	dst.evals = n.evals
	dst.gen = n.gen
	dst.cloneSrc = n
	dst.cloneSrcGen = n.gen
	dst.scratch = nil
	dst.tracer = nil
	// A stale cache could validate against the new gen by coincidence;
	// the fast path keeps them because the structure tables are identical.
	dst.views = nil
	dst.regions = nil
	n.copyMarkerInto(dst)
}

// copyMarkerInto gives dst n's fixpoint marker, dirty set and — being
// pure structure, immutable once built — region partition.
func (n *Network) copyMarkerInto(dst *Network) {
	dst.clearDirty()
	for _, pid := range n.dirtyList {
		dst.markDirty(pid)
	}
	dst.allDirty = n.allDirty
	dst.fixValid = n.fixValid
	dst.fixGen = n.fixGen
	dst.fixOpts = n.fixOpts
	if n.regions != nil {
		dst.regions = n.regions
	}
}

// SortedPropertyNames returns property names sorted lexicographically.
func (n *Network) SortedPropertyNames() []string {
	out := make([]string, len(n.propList))
	for i, p := range n.propList {
		out[i] = p.Name
	}
	sort.Strings(out)
	return out
}

var _ expr.IntervalEnv = (*Network)(nil)
var _ expr.IndexedIntervalEnv = (*Network)(nil)
var _ expr.FloatEnv = (*Network)(nil)
