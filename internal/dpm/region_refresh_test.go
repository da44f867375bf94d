package dpm_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/constraint"
	"repro/internal/dddl"
	"repro/internal/dpm"
	"repro/internal/scenario"
	"repro/internal/teamsim"
)

// pair runs one operation history through the production DPM and the
// reference (export_test.go) side by side.
type pair struct {
	t        *testing.T
	got, ref *dpm.DPM
	// single says the network is one region, where the contract also
	// pins the revise schedule: evaluations, narrowed and emptied lists.
	single bool
}

func newPair(t *testing.T, scn *dddl.Scenario) *pair {
	t.Helper()
	got, err := dpm.FromScenario(scn, dpm.ADPM)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dpm.FromScenarioReference(scn, dpm.ADPM)
	if err != nil {
		t.Fatal(err)
	}
	p := &pair{t: t, got: got, ref: ref, single: got.Net.RegionCount() == 1}
	p.compareState("initial")
	if g, r := got.Net.EvalCount(), ref.Net.EvalCount(); g > r || (p.single && g != r) {
		t.Fatalf("initial evaluation: %d evals, reference %d (single region: %v)", g, r, p.single)
	}
	return p
}

// touches reports whether δ will change the network: bind a property or
// run at least one verification tool (all arguments bound). Read off the
// reference before the operation is applied.
func (p *pair) touches(op dpm.Operation) bool {
	switch op.Kind {
	case dpm.OpSynthesis:
		return len(op.Assignments) > 0
	case dpm.OpVerification:
		names := op.Verify
		if len(names) == 0 {
			names = p.ref.Problem(op.Problem).Constraints
		}
		for _, cn := range names {
			ready := true
			for _, a := range p.ref.Net.Constraint(cn).Args() {
				if !p.ref.Net.Property(a).IsBound() {
					ready = false
				}
			}
			if ready {
				return true
			}
		}
	}
	return false
}

// apply executes op on both sides, compares the transitions and the
// complete state, and returns the production transition.
func (p *pair) apply(at string, op dpm.Operation) *dpm.Transition {
	p.t.Helper()
	touches := p.touches(op)
	got, err := p.got.Apply(op)
	if err != nil {
		p.t.Fatalf("%s: %v", at, err)
	}
	ref, err := p.ref.ApplyReference(op)
	if err != nil {
		p.t.Fatalf("%s: reference: %v", at, err)
	}
	for _, f := range []struct {
		name     string
		got, ref []string
	}{
		{"ViolationsBefore", got.ViolationsBefore, ref.ViolationsBefore},
		{"ViolationsAfter", got.ViolationsAfter, ref.ViolationsAfter},
		{"NewViolations", got.NewViolations, ref.NewViolations},
	} {
		if !reflect.DeepEqual(f.got, f.ref) {
			p.t.Fatalf("%s: %s = %v, reference %v", at, f.name, f.got, f.ref)
		}
	}
	if got.IsSpin != ref.IsSpin {
		p.t.Fatalf("%s: IsSpin = %v, reference %v", at, got.IsSpin, ref.IsSpin)
	}
	switch {
	case p.single && touches:
		if got.Evaluations != ref.Evaluations ||
			!reflect.DeepEqual(got.Narrowed, ref.Narrowed) || !reflect.DeepEqual(got.Emptied, ref.Emptied) {
			p.t.Fatalf("%s: single-region schedule differs: %d evals narrowed %v emptied %v, reference %d %v %v",
				at, got.Evaluations, got.Narrowed, got.Emptied, ref.Evaluations, ref.Narrowed, ref.Emptied)
		}
	case got.Evaluations > ref.Evaluations:
		p.t.Fatalf("%s: %d evaluations, more than the reference's %d", at, got.Evaluations, ref.Evaluations)
	}
	p.compareState(at)
	return got
}

// compareState compares bindings, feasible subspaces (movement windows
// for bound outputs), constraint statuses, violations and problem
// statuses exactly.
func (p *pair) compareState(at string) {
	p.t.Helper()
	refProps := p.ref.Net.Properties()
	for i, g := range p.got.Net.Properties() {
		r := refProps[i]
		gv, gb := g.Value()
		rv, rb := r.Value()
		if gb != rb || !gv.Equal(rv) {
			p.t.Fatalf("%s: %s bound to %v (%v), reference %v (%v)", at, g.Name, gv, gb, rv, rb)
		}
		if !g.Feasible().Equal(r.Feasible()) {
			p.t.Fatalf("%s: %s feasible %v, reference %v (bound=%v)", at, g.Name, g.Feasible(), r.Feasible(), gb)
		}
	}
	for _, c := range p.got.Net.Constraints() {
		if gs, rs := p.got.Net.Status(c.Name), p.ref.Net.Status(c.Name); gs != rs {
			p.t.Fatalf("%s: %s status %v, reference %v", at, c.Name, gs, rs)
		}
	}
	if gv, rv := p.got.Net.Violations(), p.ref.Net.Violations(); !reflect.DeepEqual(gv, rv) {
		p.t.Fatalf("%s: violations %v, reference %v", at, gv, rv)
	}
	refProbs := p.ref.Problems()
	for i, g := range p.got.Problems() {
		if g.Status() != refProbs[i].Status() {
			p.t.Fatalf("%s: problem %s %v, reference %v", at, g.Name, g.Status(), refProbs[i].Status())
		}
	}
}

// replay applies the whole script and checks the evaluation totals.
func (p *pair) replay(ops []dpm.Operation) {
	p.t.Helper()
	allTouch := true
	for i, op := range ops {
		allTouch = allTouch && p.touches(op)
		p.apply(fmt.Sprintf("op %d (%s)", i, op), op)
	}
	got, ref := p.got.Net.EvalCount(), p.ref.Net.EvalCount()
	if got > ref || (p.single && allTouch && got != ref) {
		p.t.Fatalf("EvalCount %d, reference %d (single region: %v)", got, ref, p.single)
	}
}

// receiverHistory is the operation history of one seeded TeamSim run.
func receiverHistory(t *testing.T) []dpm.Operation {
	t.Helper()
	res, err := teamsim.Run(teamsim.Config{Scenario: scenario.Receiver(), Mode: dpm.ADPM, Seed: 3, MaxOps: 200})
	if err != nil {
		t.Fatal(err)
	}
	var ops []dpm.Operation
	for _, tr := range res.Process.History() {
		ops = append(ops, tr.Op)
	}
	if len(ops) == 0 {
		t.Fatal("empty TeamSim history")
	}
	return ops
}

// TestRegionRefreshMatchesReference is the equivalence contract of
// DPM.evaluate: after every operation the region-scoped evaluation
// leaves exactly the state of reset + full propagation + whole-network
// window refresh, with the identical schedule on single-region networks
// and no more evaluations on multi-region ones.
func TestRegionRefreshMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		family string
		n      int
		single bool
	}{
		{"sparse", 200, false},
		{"hub", 200, false},
		{"layers", 100, false}, // a few first-layer nodes feed nothing
		{"grid", 100, true},
	} {
		t.Run(fmt.Sprintf("%s:%d", tc.family, tc.n), func(t *testing.T) {
			sn := scenario.MustScale(tc.family, tc.n, 1)
			p := newPair(t, sn.Scenario)
			if p.single != tc.single {
				t.Fatalf("%d regions; single region expected: %v", p.got.Net.RegionCount(), tc.single)
			}
			p.replay(sn.Ops)
		})
	}
	t.Run("receiver", func(t *testing.T) {
		p := newPair(t, scenario.Receiver())
		if !p.single {
			t.Fatalf("receiver has %d regions, want 1", p.got.Net.RegionCount())
		}
		p.replay(receiverHistory(t))
	})
}

// TestRegionRefreshEvalsPerOpLarge pins where the saving sits on
// serve-large's network: the whole-network refresh paid ~70 000
// evaluations per operation of the sparse:1000 script.
func TestRegionRefreshEvalsPerOpLarge(t *testing.T) {
	sn := scenario.MustScale("sparse", 1000, 1)
	d, err := dpm.FromScenario(sn.Scenario, dpm.ADPM)
	if err != nil {
		t.Fatal(err)
	}
	start := d.Net.EvalCount()
	for i, op := range sn.Ops {
		if _, err := d.Apply(op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	perOp := float64(d.Net.EvalCount()-start) / float64(len(sn.Ops))
	t.Logf("sparse:1000: %.0f evaluations per operation over %d operations", perOp, len(sn.Ops))
	if perOp > 1500 {
		t.Errorf("%.0f evaluations per operation, want <= 1500", perOp)
	}
}

// TestRegionRefreshFallbacks drives each event that must make the next
// evaluation fall back to (or stay equivalent to) the full one, in the
// middle of a multi-region session, and compares every window after it.
func TestRegionRefreshFallbacks(t *testing.T) {
	sn := scenario.MustScale("sparse", 200, 1)
	// A stretch of the script on either side of the event; each holds
	// syntheses in several regions and whole-problem verifications.
	pre, post := sn.Ops[:20], sn.Ops[20:40]
	start := func(t *testing.T) *pair {
		p := newPair(t, sn.Scenario)
		if p.single {
			t.Fatal("sparse:200 is meant to be multi-region")
		}
		return p
	}

	t.Run("rollback", func(t *testing.T) {
		// Restore rewinds to an earlier state and drops the fixpoint
		// marker, so the next evaluation is a full one.
		p := start(t)
		mid := len(pre) / 2
		p.replay(pre[:mid])
		gotSnap, refSnap := p.got.Net.Snapshot(), p.ref.Net.Snapshot()
		p.replay(pre[mid:])
		p.got.Net.Restore(gotSnap)
		p.ref.Net.Restore(refSnap)
		p.compareState("after rollback")
		p.replay(post)
	})

	t.Run("capped run", func(t *testing.T) {
		p := start(t)
		p.replay(pre)
		// Capped runs are outside the contract (a cap cuts a region's
		// schedule and the whole network's at different points), so only
		// what follows them is compared: the capped run must not leave a
		// fixpoint marker for the next evaluation to build on.
		tiny := constraint.PropagateOptions{MaxRevisions: 3}
		p.got.PropOpts, p.ref.PropOpts = tiny, tiny
		if _, err := p.got.Apply(post[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := p.ref.ApplyReference(post[0]); err != nil {
			t.Fatal(err)
		}
		p.got.PropOpts, p.ref.PropOpts = constraint.PropagateOptions{}, constraint.PropagateOptions{}
		p.replay(post[1:])
	})

	t.Run("capped throughout", func(t *testing.T) {
		// With every run capped, every run is the full fallback, and the
		// two sides are the same algorithm.
		p := start(t)
		tiny := constraint.PropagateOptions{MaxRevisions: 40}
		p.got.PropOpts, p.ref.PropOpts = tiny, tiny
		p.replay(pre)
	})

	t.Run("structural edit merges regions", func(t *testing.T) {
		p := start(t)
		p.replay(pre)
		// Blocks of 64 properties are separate regions; tie two together.
		a, b := "p000001", "p000100"
		if ra, rb := p.got.Net.RegionOf(a), p.got.Net.RegionOf(b); ra == rb {
			t.Fatalf("%s and %s already share region %d", a, b, ra)
		}
		before := p.got.Net.RegionCount()
		for _, d := range []*dpm.DPM{p.got, p.ref} {
			c, err := constraint.ParseConstraint("bridge", a+" <= "+b)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Net.AddConstraint(c); err != nil {
				t.Fatal(err)
			}
		}
		if after := p.got.Net.RegionCount(); after != before-1 {
			t.Fatalf("%d regions after the bridge, want %d", after, before-1)
		}
		p.replay(post)
	})

	t.Run("changed options", func(t *testing.T) {
		p := start(t)
		p.replay(pre)
		loose := constraint.PropagateOptions{MinShrink: 0.2}
		p.got.PropOpts, p.ref.PropOpts = loose, loose
		p.replay(post)
	})

	t.Run("verification", func(t *testing.T) {
		p := start(t)
		p.replay(pre)
		for _, prob := range p.got.Problems() {
			if prob.IsLeaf() {
				p.apply("verify "+prob.Name, dpm.Operation{Kind: dpm.OpVerification, Problem: prob.Name, Designer: prob.Owner})
			}
		}
		p.replay(post)
	})

	t.Run("untouching operations", func(t *testing.T) {
		p := start(t)
		p.replay(pre)
		// Nothing to re-derive, where the reference re-derives the state
		// it already held.
		for _, op := range []dpm.Operation{
			{Kind: dpm.OpDecomposition, Problem: "Top", Designer: "lead"},
			{Kind: dpm.OpSynthesis, Problem: "P00", Designer: "d00"},
		} {
			if tr := p.apply(op.String(), op); tr.Evaluations != 0 {
				t.Errorf("%s touches nothing and cost %d evaluations", op, tr.Evaluations)
			}
		}
		p.replay(post)
	})
}

// TestRegionRefreshWorkers runs the refresh with the caller as its only
// worker (GOMAXPROCS 1) and beside three more (GOMAXPROCS 4) — workers
// read the live network's fixpoint marker and dirty set inside
// CloneInto — and checks both against the reference; run it under -race.
func TestRegionRefreshWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, spec := range []struct {
			family string
			n      int
		}{{"sparse", 200}, {"grid", 100}} {
			t.Run(fmt.Sprintf("procs=%d/%s:%d", procs, spec.family, spec.n), func(t *testing.T) {
				sn := scenario.MustScale(spec.family, spec.n, 2)
				newPair(t, sn.Scenario).replay(sn.Ops[:40])
			})
		}
	}
}
