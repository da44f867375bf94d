package constraint

import (
	"sort"

	"repro/internal/domain"
	"repro/internal/expr"
	"repro/internal/interval"
	"repro/internal/trace"
)

// Defaults for PropagateOptions fields left at zero.
const (
	// DefaultMaxRevisions bounds the total number of constraint revises
	// in one propagation run.
	DefaultMaxRevisions = 2000
	// DefaultMinShrink is the minimum relative width reduction for a
	// narrowing to count as a change worth re-enqueueing neighbours:
	// 1% of the current width. Design guidance needs windows, not tight
	// enclosures, and the asymptotic tail of interval fixpoints is
	// where the evaluation budget disappears.
	DefaultMinShrink = 0.01
	// DefaultMaxVisits caps how often a single constraint is revised in
	// one propagation run.
	DefaultMaxVisits = 12
)

// PropagateOptions tunes the fixpoint propagation.
type PropagateOptions struct {
	// MaxRevisions bounds the total number of constraint revises; 0
	// means the default (DefaultMaxRevisions, 2000). The bound exists
	// because continuous domains can contract asymptotically (interval
	// propagation is only guaranteed to converge in the limit). Large
	// networks need a proportionally larger budget: the default suits
	// the paper-scale scenarios, not a 10⁴-property grid.
	MaxRevisions int
	// MinShrink is the minimum relative width reduction for a narrowing
	// to count as a change worth re-enqueueing neighbours for; 0 means
	// the default (DefaultMinShrink, 1%).
	MinShrink float64
	// MaxVisits caps how often a single constraint is revised in one
	// propagation run; 0 means the default (DefaultMaxVisits, 12).
	// Equality chains can contract geometrically — each revise
	// shrinking a fixed fraction — so a relative-shrink threshold alone
	// never converges.
	MaxVisits int
	// Incremental seeds the worklist from the dirty property set instead
	// of revisiting the whole network. An incremental run owns the
	// initial reset: Propagate{Incremental: true} is equivalent to
	// ResetFeasible followed by a full Propagate with the same options —
	// bit-identical windows and statuses — but only resets and revisits
	// the regions (regions.go) containing a property whose binding
	// changed — or a constraint status was written outside propagation
	// (SetStatus) — since the last incremental fixpoint.
	// Structural edits, Restore, ResetFeasible, EvaluateAll, a capped
	// run, or changed options all invalidate the fixpoint marker and
	// force the next incremental run to fall back to the full
	// reset-and-propagate; CloneInto carries the marker to the copy.
	// Evaluations/Revisions/Narrowed/Emptied then describe only the
	// re-derived regions (Network.Rederived says which); Violated and
	// the network state are global.
	//
	// Only changes made through the Network API are tracked; callers that
	// mutate Property state directly must not opt in.
	Incremental bool
}

// withDefaults resolves zero fields to the package defaults.
func (o PropagateOptions) withDefaults() PropagateOptions {
	if o.MaxRevisions <= 0 {
		o.MaxRevisions = DefaultMaxRevisions
	}
	if o.MinShrink <= 0 {
		o.MinShrink = DefaultMinShrink
	}
	if o.MaxVisits <= 0 {
		o.MaxVisits = DefaultMaxVisits
	}
	return o
}

// PropagateResult summarizes one propagation run (one execution of the
// DCM's constraint propagation algorithm, paper §2.2).
type PropagateResult struct {
	// Evaluations is the number of constraint evaluations this run
	// performed (the paper's CAD-resource metric).
	Evaluations int64
	// Revisions is the number of HC4 revises executed.
	Revisions int
	// Violated lists constraints found Violated, in insertion order.
	Violated []string
	// Narrowed lists properties whose feasible subspace shrank.
	Narrowed []string
	// Emptied lists properties whose feasible subspace became empty
	// (every remaining value found infeasible).
	Emptied []string
	// Capped is true when MaxRevisions stopped the run early.
	Capped bool
}

// propScratch is the reusable propagation workspace of one network:
// the int-indexed worklist state and per-property marks that one run
// of Propagate needs, plus the per-constraint shadow trees for
// allocation-free HC4 revises. It is lazily allocated, grown when the
// network grows, and never shared between networks.
type propScratch struct {
	// queue is the constraint-id worklist; head indexes the next pop.
	queue []int
	// inQueue/visits are per constraint id.
	inQueue []bool
	visits  []int
	// narrowed/emptied/revMark/pre are per property id. narrowed and
	// emptied accumulate over a run; revMark marks the arguments
	// changed by the current revise (revList holds them for clearing).
	narrowed []bool
	emptied  []bool
	revMark  []bool
	revList  []int
	pre      []interval.Interval
	// regionMark/regionList hold the regions the last run re-derived
	// when it was an incremental run that skipped the others; they stay
	// set for Network.Rederived until the next run seeds. rederivedAll
	// says the last run re-derived every region instead.
	regionMark   []bool
	regionList   []int
	rederivedAll bool
	// shadows holds the reusable HC4 forward trees per constraint id;
	// they persist across runs.
	shadows []*expr.Shadow
}

// getScratch returns the network's propagation workspace, grown to the
// current structure size with per-run state cleared.
func (n *Network) getScratch() *propScratch {
	sc := n.scratch
	if sc == nil {
		sc = &propScratch{}
		n.scratch = sc
	}
	nc, np := len(n.conList), len(n.propList)
	if cap(sc.queue) < nc {
		sc.queue = make([]int, 0, nc*2)
	}
	sc.queue = sc.queue[:0]
	if len(sc.inQueue) < nc {
		sc.inQueue = make([]bool, nc)
		sc.visits = make([]int, nc)
	} else {
		for i := 0; i < nc; i++ {
			sc.inQueue[i] = false
			sc.visits[i] = 0
		}
	}
	if len(sc.shadows) < nc {
		shadows := make([]*expr.Shadow, nc)
		copy(shadows, sc.shadows)
		sc.shadows = shadows
	}
	if len(sc.narrowed) < np {
		sc.narrowed = make([]bool, np)
		sc.emptied = make([]bool, np)
		sc.revMark = make([]bool, np)
		sc.pre = make([]interval.Interval, np)
	} else {
		for i := 0; i < np; i++ {
			sc.narrowed[i] = false
			sc.emptied[i] = false
			sc.revMark[i] = false
		}
	}
	sc.revList = sc.revList[:0]
	return sc
}

// shadowFor returns the reusable HC4 shadow of constraint ci, building
// it from the compiled expression on first use.
func (n *Network) shadowFor(sc *propScratch, ci int) *expr.Shadow {
	if s := sc.shadows[ci]; s != nil {
		return s
	}
	s := expr.NewShadow(n.compiled[ci])
	sc.shadows[ci] = s
	return s
}

// propagationBox adapts the network to expr.Box for HC4 narrowing.
// Narrowing applies to feasible subspaces of unbound numeric
// properties; bound properties present their point value and reject
// narrowing below it (an impossible requirement surfaces as constraint
// violation, not domain change). Every SetDomain call — effective or
// not — marks the property as changed-this-revise, mirroring the
// changed-variable reporting of expr.Narrow.
type propagationBox struct {
	n  *Network
	sc *propScratch
}

func (b *propagationBox) Domain(name string) interval.Interval {
	return b.n.Domain(name)
}

func (b *propagationBox) DomainID(id int) interval.Interval {
	return b.n.propList[id].CurrentInterval()
}

func (b *propagationBox) SetDomain(name string, iv interval.Interval) {
	if id, ok := b.n.propIDs[name]; ok {
		b.SetDomainID(id, iv)
	}
}

func (b *propagationBox) SetDomainID(id int, iv interval.Interval) {
	sc := b.sc
	if !sc.revMark[id] {
		sc.revMark[id] = true
		sc.revList = append(sc.revList, id)
	}
	p := b.n.propList[id]
	if p.IsBound() || !p.IsNumeric() {
		return
	}
	if p.feasible.IsEmpty() {
		// Already emptied: CurrentInterval fell back to E_i, so the
		// narrowing applies to the initial range; keep it empty rather
		// than resurrecting values.
		return
	}
	nf := p.feasible.NarrowTo(iv)
	if !nf.Equal(p.feasible) {
		p.feasible = nf
		sc.narrowed[id] = true
	}
}

var _ expr.IndexedBox = (*propagationBox)(nil)

// canIncremental reports whether the fixpoint marker lets an
// incremental run skip regions without dirty properties: the marker
// must be current and set under the same resolved options.
func (n *Network) canIncremental(opts PropagateOptions) bool {
	return n.fixValid && n.fixGen == n.gen && !n.allDirty &&
		opts == n.fixOpts
}

// seedWorklist fills the scratch worklist for one run: every constraint
// for a full run, or — when the incremental fixpoint marker holds —
// only the constraints of regions containing a dirty property, after
// resetting exactly those regions' feasible subspaces to E_i. Because a
// revise reads and writes only its own region, the skipped regions
// already hold the windows a full reset-and-propagate would recompute
// for them, and the seeded regions rerun the exact sub-schedule the
// full run would give them (the full schedule restricted to a region is
// determined by that region's seeds and state alone). Seeds are pushed
// in ascending constraint id order either way — the same order a full
// run seeds them in.
func (n *Network) seedWorklist(sc *propScratch, opts PropagateOptions) {
	for _, r := range sc.regionList {
		sc.regionMark[r] = false
	}
	sc.regionList = sc.regionList[:0]
	sc.rederivedAll = true
	if opts.Incremental {
		if n.canIncremental(opts) {
			sc.rederivedAll = false
			rc := n.getRegionCache()
			if len(sc.regionMark) < len(rc.regionProps) {
				sc.regionMark = make([]bool, len(rc.regionProps))
			}
			for _, pid := range n.dirtyList {
				r := rc.propRegion[pid]
				if !sc.regionMark[r] {
					sc.regionMark[r] = true
					sc.regionList = append(sc.regionList, r)
				}
			}
			sort.Ints(sc.regionList)
			for _, r := range sc.regionList {
				for _, pid := range rc.regionProps[r] {
					n.propList[pid].ResetFeasible()
				}
				for _, ci := range rc.regionCons[r] {
					sc.queue = append(sc.queue, ci)
					sc.inQueue[ci] = true
				}
			}
			return
		}
		// Marker invalid: this entry point owns the reset, so fall back
		// to the full reset-and-propagate it is defined against.
		n.ResetFeasible()
	}
	for ci := range n.conList {
		sc.queue = append(sc.queue, ci)
		sc.inQueue[ci] = true
	}
}

// Rederived reports whether the most recent Propagate on this network
// reset and re-derived the region containing the named property: every
// region after a full run (an incremental run's fallback included), only
// the dirty ones after an incremental run that skipped the rest. What
// the network holds for any other region — windows, statuses, and
// whatever a caller stored in a bound property's feasible subspace —
// is untouched by that run. The answer describes the structure the run
// saw; ask before the next structural edit.
func (n *Network) Rederived(prop string) bool {
	sc := n.scratch
	pid := n.propID(prop)
	if sc == nil || pid < 0 {
		return false
	}
	if sc.rederivedAll {
		return true
	}
	r := n.getRegionCache().propRegion[pid]
	return r < len(sc.regionMark) && sc.regionMark[r]
}

// noteFixpoint maintains the incremental marker after a run. Only
// incremental runs establish it: they own the initial reset, so their
// result is a reset-based fixpoint by construction. A plain run narrows
// from whatever state the caller prepared, which the marker cannot
// describe.
func (n *Network) noteFixpoint(opts PropagateOptions, res *PropagateResult) {
	if !opts.Incremental {
		n.fixValid = false
		return
	}
	n.clearDirty()
	n.fixValid = !res.Capped
	n.fixGen = n.gen
	n.fixOpts = opts
}

// Propagate runs constraint propagation to a fixpoint: it repeatedly
// evaluates constraint statuses and narrows feasible subspaces until no
// domain changes enough to matter (AC-3 over HC4 revises). Violated
// constraints do not narrow domains — their information content is the
// violation itself, which the designers resolve by changing bound
// values (§2.3.3).
//
// The worklist is FIFO, seeded in ascending constraint id order with
// neighbours re-enqueued in sorted argument order, so the revise
// schedule — and every count derived from it — is reproducible run to
// run. The worklist, visit counts, and per-property marks live in a
// reusable int-indexed workspace owned by the network, so repeated
// runs perform no steady-state allocation. Incremental selects
// dirty-set seeding (see PropagateOptions).
func (n *Network) Propagate(opts PropagateOptions) PropagateResult {
	opts = opts.withDefaults()
	res := PropagateResult{}
	startEvals := n.evals
	tr := n.tracer
	var traceStart int64
	if tr.Enabled() {
		traceStart = tr.Now()
	}
	sc := n.getScratch()
	box := &propagationBox{n: n, sc: sc}

	// Worklist of constraint ids in insertion order; inQueue avoids
	// duplicates. head indexes the next pop (the queue slice only
	// grows; popped entries are left behind).
	n.seedWorklist(sc, opts)
	for head := 0; head < len(sc.queue); head++ {
		if res.Revisions >= opts.MaxRevisions {
			res.Capped = true
			break
		}
		ci := sc.queue[head]
		sc.inQueue[ci] = false
		c := n.conList[ci]
		sc.visits[ci]++

		res.Revisions++
		n.evals++ // each revise evaluates the constraint once

		status := statusFromDiff(expr.EvalInterval(n.compiled[ci], n), c.Rel)
		n.status[ci] = status
		if tr.FullDetail() {
			tr.Emit(trace.Event{Kind: trace.KindRevise, Name: c.Name, Evals: 1})
		}
		if DebugHook != nil && status == Violated {
			DebugHook("status-violated", c, n)
		}
		if status == Violated {
			// Every combination of the arguments' current values falls
			// outside the relation, so each unbound argument's remaining
			// feasible values are all infeasible (§2.3.1: v_F keeps only
			// values not found infeasible). Bound arguments are the
			// designers' responsibility — the violation itself is their
			// signal (§2.3.3).
			for _, aid := range n.conArgs[ci] {
				p := n.propList[aid]
				if p.IsBound() || !p.IsNumeric() || p.feasible.IsEmpty() {
					continue
				}
				p.feasible = domain.Empty(p.feasible.Kind())
				sc.narrowed[aid] = true
				sc.emptied[aid] = true
			}
			continue
		}
		if status == Satisfied {
			// A constraint satisfied for every combination of current
			// values cannot exclude any of them; narrowing is a no-op.
			continue
		}

		// Record pre-widths to apply the minimum-shrink re-enqueue test.
		for _, aid := range n.conArgs[ci] {
			sc.pre[aid] = n.propList[aid].CurrentInterval()
		}

		// One HC4 revise; NE constraints impose no narrowing.
		want, hasWant := c.requiredDiff()
		if !hasWant {
			continue
		}
		// Reset the per-revise changed marks, then narrow.
		for _, id := range sc.revList {
			sc.revMark[id] = false
		}
		sc.revList = sc.revList[:0]
		if !n.shadowFor(sc, ci).Narrow(want, box) {
			if DebugHook != nil {
				DebugHook("narrow-inconsistent", c, n)
			}
			// No combination of remaining values can satisfy c even
			// though the status test was inconclusive; treat as violated
			// for designers (they must move some bound value).
			n.status[ci] = Violated
			continue
		}

		// Process changed arguments in the constraint's (sorted)
		// argument order: the enqueue order below decides the revise
		// order of the whole run, and metrics must be reproducible
		// run-to-run.
		for _, aid := range n.conArgs[ci] {
			if !sc.revMark[aid] {
				continue
			}
			p := n.propList[aid]
			if p.feasible.IsEmpty() && !sc.emptied[aid] {
				sc.emptied[aid] = true
			}
			if !significantShrink(sc.pre[aid], p.CurrentInterval(), opts.MinShrink) && !p.feasible.IsEmpty() {
				continue
			}
			for _, nb := range n.byProp[aid] {
				if nb != ci && !sc.inQueue[nb] && sc.visits[nb] < opts.MaxVisits {
					sc.inQueue[nb] = true
					sc.queue = append(sc.queue, nb)
				}
			}
		}
	}

	res.Evaluations = n.evals - startEvals
	for id, ok := range sc.narrowed {
		if ok {
			res.Narrowed = append(res.Narrowed, n.propList[id].Name)
		}
	}
	sort.Strings(res.Narrowed)
	for id, ok := range sc.emptied {
		if ok {
			res.Emptied = append(res.Emptied, n.propList[id].Name)
		}
	}
	sort.Strings(res.Emptied)
	for ci, s := range n.status {
		if s == Violated {
			res.Violated = append(res.Violated, n.conList[ci].Name)
		}
	}
	n.noteFixpoint(opts, &res)
	if tr.Enabled() {
		tr.Emit(trace.Event{
			Kind:      trace.KindPropagate,
			Revisions: res.Revisions,
			Evals:     res.Evaluations,
			Narrowed:  len(res.Narrowed),
			Emptied:   len(res.Emptied),
			Capped:    res.Capped,
			DurNanos:  tr.Now() - traceStart,
		})
	}
	return res
}

// DebugHook is a test-only observation point for violation decisions.
var DebugHook func(reason string, c *Constraint, n *Network)

// significantShrink reports whether the domain contraction from pre to
// post is large enough (relative to pre's width) to justify waking the
// neighbouring constraints again.
func significantShrink(pre, post interval.Interval, minShrink float64) bool {
	if post.IsEmpty() && !pre.IsEmpty() {
		return true
	}
	pw := pre.Width()
	if pw == 0 {
		return false
	}
	return (pw - post.Width()) > minShrink*pw
}
