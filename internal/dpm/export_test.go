package dpm

import (
	"repro/internal/constraint"
	"repro/internal/dddl"
)

// The sequential specification the region-scoped evaluation is judged
// against: the DCM evaluation step as it was before the DPM propagated
// incrementally — reset every feasible subspace, propagate the whole
// network, then recompute the movement window of every bound output on
// a whole-network reset of a scratch copy. It never leaves a fixpoint
// marker behind, so nothing in it depends on the incremental schedule.
// Everything around the step (δ's bindings, derived recomputation,
// verification tools, problem statuses, history) is the production code.

// FromScenarioReference is FromScenario evaluated by the reference.
func FromScenarioReference(scn *dddl.Scenario, mode Mode) (*DPM, error) {
	return fromScenario(scn, mode, (*DPM).evaluateReference)
}

// ApplyReference is Apply evaluated by the reference.
func (d *DPM) ApplyReference(op Operation) (*Transition, error) {
	return d.apply(op, (*DPM).evaluateReference)
}

func (d *DPM) evaluateReference() constraint.PropagateResult {
	d.Net.ResetFeasible()
	res := d.Net.Propagate(d.PropOpts)
	scratch := d.scratchFor(0) // allocation reuse only; re-cloned per window
	for _, p := range d.windowOutputs() {
		if !p.IsBound() {
			continue
		}
		d.Net.CloneInto(scratch)
		before := scratch.EvalCount()
		scratch.Unbind(p.Name)
		for _, dep := range d.dependentDerived(p.Name) {
			scratch.Unbind(dep)
		}
		scratch.ResetFeasible()
		scratch.Propagate(d.PropOpts)
		d.Net.AddEvals(scratch.EvalCount() - before)
		p.SetFeasible(scratch.Property(p.Name).Feasible())
	}
	return res
}
