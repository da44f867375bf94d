package dcm

import (
	"testing"

	"repro/internal/dddl"
	"repro/internal/domain"
	"repro/internal/dpm"
)

const viewDoc = `
scenario view_test

object Sys owner leader {
    property Budget real [0, 100]
}
object A owner alice {
    property Pa real [0, 100]
    property Qa real [0, 10]
}
object B owner bob {
    property Pb real [0, 100]
}

constraint Split: Pa + Pb <= Budget
constraint AMin: Pa >= 10
constraint QaCap: Qa <= 5

problem Top owner leader {
    outputs { Budget }
    constraints { Split }
}
problem SubA owner alice {
    inputs { Budget }
    outputs { Pa, Qa }
    constraints { AMin, QaCap }
}
problem SubB owner bob {
    inputs { Budget }
    outputs { Pb }
    constraints { }
}

decompose Top -> SubA, SubB
require Budget = 60
`

func build(t *testing.T, mode dpm.Mode) *dpm.DPM {
	t.Helper()
	scn, err := dddl.ParseString(viewDoc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dpm.FromScenario(scn, mode)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestViewConcernClosure(t *testing.T) {
	d := build(t, dpm.ADPM)
	v := BuildView(d, "alice")
	// Alice's own props: Pa, Qa (outputs), Budget (input). Concern
	// closure adds Pb (co-argument of Split).
	for _, name := range []string{"Pa", "Qa", "Budget", "Pb"} {
		if v.Props[name] == nil {
			t.Errorf("missing %s from alice's view", name)
		}
	}
	if !v.Props["Pa"].Writable || v.Props["Pb"].Writable || v.Props["Budget"].Writable {
		t.Error("writable flags wrong")
	}
	if v.Props["Pa"].Beta != 2 { // Split + AMin
		t.Errorf("beta(Pa) = %d, want 2", v.Props["Pa"].Beta)
	}
	if len(v.Problems) != 1 || v.Problems[0].Name != "SubA" {
		t.Errorf("Problems = %+v", v.Problems)
	}
	if len(v.Problems[0].UnboundOutputs) != 2 {
		t.Errorf("UnboundOutputs = %v", v.Problems[0].UnboundOutputs)
	}
}

func TestViewFeasibleADPMvsConventional(t *testing.T) {
	da := build(t, dpm.ADPM)
	va := BuildView(da, "alice")
	// ADPM: propagation has narrowed Pa to [0,60] (Budget=60, Pb>=0).
	ivA, _ := va.Props["Pa"].Feasible.Interval()
	if ivA.Hi > 60+1e-9 {
		t.Errorf("ADPM feasible Pa = %v, want narrowed to <= 60", ivA)
	}
	if va.Props["Pa"].RelFeasible > 0.61 {
		t.Errorf("RelFeasible = %v", va.Props["Pa"].RelFeasible)
	}

	dc := build(t, dpm.Conventional)
	vc := BuildView(dc, "alice")
	ivC, _ := vc.Props["Pa"].Feasible.Interval()
	if ivC.Hi != 100 {
		t.Errorf("conventional feasible Pa = %v, want E_i", ivC)
	}
	if vc.ADPM {
		t.Error("mode flag wrong")
	}
}

func TestViewViolationsAndAlpha(t *testing.T) {
	d := build(t, dpm.ADPM)
	mustApply(t, d, dpm.Operation{
		Kind: dpm.OpSynthesis, Problem: "SubA", Designer: "alice",
		Assignments: []dpm.Assignment{{Prop: "Pa", Value: domain.Real(50)}},
	})
	mustApply(t, d, dpm.Operation{
		Kind: dpm.OpSynthesis, Problem: "SubB", Designer: "bob",
		Assignments: []dpm.Assignment{{Prop: "Pb", Value: domain.Real(50)}},
	})
	// 50+50 > 60: Split violated. Both alice and bob see it.
	for _, who := range []string{"alice", "bob"} {
		v := BuildView(d, who)
		if !v.KnowsViolations() {
			t.Fatalf("%s does not know of the violation", who)
		}
		if len(v.Violations) != 1 || v.Violations[0].Constraint != "Split" {
			t.Errorf("%s violations = %+v", who, v.Violations)
		}
		if !v.Violations[0].CrossSubsystem {
			t.Error("Split should be cross-subsystem")
		}
		// Fix direction: decreasing Pa/Pb helps.
		if v.Violations[0].FixDirections["Pa"] != -1 {
			t.Errorf("fix dir Pa = %d", v.Violations[0].FixDirections["Pa"])
		}
		if v.Violations[0].Margin <= 0 {
			t.Errorf("margin = %v, want positive (violated)", v.Violations[0].Margin)
		}
	}
	va := BuildView(d, "alice")
	if va.Props["Pa"].Alpha != 1 {
		t.Errorf("alpha(Pa) = %d", va.Props["Pa"].Alpha)
	}
	// FixVotes for Pa should point down (negative).
	if va.Props["Pa"].FixVotes >= 0 {
		t.Errorf("FixVotes(Pa) = %d, want negative", va.Props["Pa"].FixVotes)
	}
	// The leader's view: owns Top (its Budget is bound), sees Split.
	vl := BuildView(d, "leader")
	if len(vl.Violations) != 1 {
		t.Errorf("leader violations = %+v", vl.Violations)
	}
}

func TestViewMonotoneLists(t *testing.T) {
	d := build(t, dpm.ADPM)
	v := BuildView(d, "alice")
	pa := v.Props["Pa"]
	// Both Split (Pa+Pb-Budget) and AMin (Pa-10) increase in Pa.
	if len(pa.IncreasingIn) != 2 || pa.IncreasingIn[0] != "Split" || pa.IncreasingIn[1] != "AMin" {
		t.Errorf("IncreasingIn(Pa) = %v", pa.IncreasingIn)
	}
	if len(pa.DecreasingIn) != 0 {
		t.Errorf("DecreasingIn(Pa) = %v", pa.DecreasingIn)
	}
	// Split's difference decreases in Budget.
	budget := v.Props["Budget"]
	if len(budget.DecreasingIn) != 1 || budget.DecreasingIn[0] != "Split" {
		t.Errorf("DecreasingIn(Budget) = %v", budget.DecreasingIn)
	}
}

func TestViewConventionalKnowledgeGating(t *testing.T) {
	d := build(t, dpm.Conventional)
	// Bind a violating pair but never verify: no one knows.
	mustApply(t, d, dpm.Operation{
		Kind: dpm.OpSynthesis, Problem: "SubA", Designer: "alice",
		Assignments: []dpm.Assignment{{Prop: "Pa", Value: domain.Real(50)}},
	})
	mustApply(t, d, dpm.Operation{
		Kind: dpm.OpSynthesis, Problem: "SubB", Designer: "bob",
		Assignments: []dpm.Assignment{{Prop: "Pb", Value: domain.Real(50)}},
	})
	if v := BuildView(d, "alice"); v.KnowsViolations() {
		t.Error("conventional designer knows violation without verification")
	}
	// After the integration verification the violation is known.
	mustApply(t, d, dpm.Operation{Kind: dpm.OpVerification, Problem: "Top", Designer: "leader"})
	if v := BuildView(d, "alice"); !v.KnowsViolations() {
		t.Error("violation unknown after verification")
	}
}

func TestAddressableProblems(t *testing.T) {
	d := build(t, dpm.ADPM)
	vl := BuildView(d, "leader")
	// Top is Waiting (children unsolved): not addressable.
	if got := vl.AddressableProblems(); len(got) != 0 {
		t.Errorf("leader addressable = %v", got)
	}
	va := BuildView(d, "alice")
	if got := va.AddressableProblems(); len(got) != 1 {
		t.Errorf("alice addressable = %v", got)
	}
}

func TestBoundReflectedInView(t *testing.T) {
	d := build(t, dpm.ADPM)
	mustApply(t, d, dpm.Operation{
		Kind: dpm.OpSynthesis, Problem: "SubA", Designer: "alice",
		Assignments: []dpm.Assignment{{Prop: "Qa", Value: domain.Real(3)}},
	})
	v := BuildView(d, "alice")
	if v.Props["Qa"].Bound == nil || v.Props["Qa"].Bound.Num() != 3 {
		t.Errorf("Bound(Qa) = %v", v.Props["Qa"].Bound)
	}
	found := false
	for _, u := range v.Problems[0].UnboundOutputs {
		if u == "Qa" {
			found = true
		}
	}
	if found {
		t.Error("Qa still listed unbound")
	}
}

func mustApply(t *testing.T, d *dpm.DPM, op dpm.Operation) {
	t.Helper()
	if _, err := d.Apply(op); err != nil {
		t.Fatal(err)
	}
}

func TestViewBetaIndirect(t *testing.T) {
	d := build(t, dpm.ADPM)
	v := BuildView(d, "alice")
	// Pa: direct β = 2 (Split, AMin); indirect adds QaCap via... no
	// shared constraint, so indirect equals the closure through Split's
	// co-arguments (Pb, Budget have no further constraints beyond Split).
	pa := v.Props["Pa"]
	if pa.BetaIndirect < pa.Beta {
		t.Errorf("indirect β %d below direct %d", pa.BetaIndirect, pa.Beta)
	}
	// Budget appears in Split only, but Split's co-arguments Pa carries
	// AMin: indirect β must see it.
	budget := v.Props["Budget"]
	if budget.Beta != 1 || budget.BetaIndirect != 2 {
		t.Errorf("Budget β=%d indirect=%d, want 1/2", budget.Beta, budget.BetaIndirect)
	}
}
