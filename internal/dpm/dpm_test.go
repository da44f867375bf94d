package dpm

import (
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/dddl"
	"repro/internal/domain"
)

const testDoc = `
scenario test

object Sys owner leader {
    property Budget real [0, 100]
}
object A owner alice {
    property Pa real [0, 100]
}
object B owner bob {
    property Pb real [0, 100]
}

constraint Split: Pa + Pb <= Budget
constraint AMin: Pa >= 10
constraint BMin: Pb >= 10

problem Top owner leader {
    outputs { Budget }
    constraints { Split }
}
problem SubA owner alice {
    inputs { Budget }
    outputs { Pa }
    constraints { AMin }
}
problem SubB owner bob {
    inputs { Budget }
    outputs { Pb }
    constraints { BMin }
}

decompose Top -> SubA, SubB
require Budget = 60
`

func mustDPM(t *testing.T, mode Mode) *DPM {
	t.Helper()
	scn, err := dddl.ParseString(testDoc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := FromScenario(scn, mode)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFromScenarioStructure(t *testing.T) {
	d := mustDPM(t, Conventional)
	if len(d.Problems()) != 3 {
		t.Fatalf("problems = %d", len(d.Problems()))
	}
	top := d.Problem("Top")
	if top.IsLeaf() || len(top.Children) != 2 {
		t.Errorf("Top children = %v", top.Children)
	}
	if top.Status() != Waiting {
		t.Errorf("Top status = %v, want Waiting", top.Status())
	}
	if d.Problem("SubA").Status() != Open {
		t.Errorf("SubA status = %v, want Open", d.Problem("SubA").Status())
	}
	if d.Problem("SubA").Parent != "Top" {
		t.Error("parent link missing")
	}
	if got := d.ProblemsOwnedBy("alice"); len(got) != 1 || got[0].Name != "SubA" {
		t.Errorf("ProblemsOwnedBy(alice) = %v", got)
	}
	if d.Done() {
		t.Error("fresh process cannot be done")
	}
}

func TestADPMInitialPropagation(t *testing.T) {
	d := mustDPM(t, ADPM)
	// Budget=60 should narrow Pa to [0,60] immediately (Pb >= 10 gives
	// Pa <= 50 after full propagation).
	iv, _ := d.Net.Property("Pa").Feasible().Interval()
	if iv.Hi > 50+1e-9 {
		t.Errorf("initial propagation missing: Pa feasible %v", iv)
	}
}

func TestConventionalNoPropagation(t *testing.T) {
	d := mustDPM(t, Conventional)
	iv, _ := d.Net.Property("Pa").Feasible().Interval()
	if iv.Hi != 100 {
		t.Errorf("conventional mode must not narrow: Pa feasible %v", iv)
	}
	if d.Net.EvalCount() != 0 {
		t.Errorf("conventional mode consumed %d evals at init", d.Net.EvalCount())
	}
}

func TestSynthesisAndVerificationFlow(t *testing.T) {
	d := mustDPM(t, Conventional)
	// Alice binds Pa = 40.
	tr, err := d.Apply(Operation{
		Kind: OpSynthesis, Problem: "SubA", Designer: "alice",
		Assignments: []Assignment{{Prop: "Pa", Value: domain.Real(40)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Evaluations != 0 {
		t.Errorf("conventional synthesis should cost 0 evals, got %d", tr.Evaluations)
	}
	if len(tr.ViolationsAfter) != 0 {
		t.Errorf("no verification yet, violations = %v", tr.ViolationsAfter)
	}
	// Alice verifies AMin: satisfied.
	tr, err = d.Apply(Operation{Kind: OpVerification, Problem: "SubA", Designer: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Evaluations != 1 {
		t.Errorf("verification evals = %d, want 1", tr.Evaluations)
	}
	if d.Net.Status("AMin") != constraint.Satisfied {
		t.Errorf("AMin = %v", d.Net.Status("AMin"))
	}
	if d.Problem("SubA").Status() != Solved {
		t.Errorf("SubA = %v, want Solved", d.Problem("SubA").Status())
	}
	// Bob binds Pb = 30 and verifies: BMin satisfied, SubB solved.
	if _, err := d.Apply(Operation{
		Kind: OpSynthesis, Problem: "SubB", Designer: "bob",
		Assignments: []Assignment{{Prop: "Pb", Value: domain.Real(30)}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply(Operation{Kind: OpVerification, Problem: "SubB", Designer: "bob"}); err != nil {
		t.Fatal(err)
	}
	if d.Problem("SubB").Status() != Solved {
		t.Fatalf("SubB = %v", d.Problem("SubB").Status())
	}
	// Integration: Top's Split constraint (40+30 > 60) is violated.
	tr, err = d.Apply(Operation{Kind: OpVerification, Problem: "Top", Designer: "leader"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.NewViolations) != 1 || tr.NewViolations[0] != "Split" {
		t.Errorf("NewViolations = %v", tr.NewViolations)
	}
	if d.Problem("Top").Status() != Open {
		t.Errorf("Top should reopen on violation, got %v", d.Problem("Top").Status())
	}
	if d.Done() {
		t.Error("process with violation cannot be done")
	}
	// Bob fixes Pb (motivated by the cross-subsystem Split): a spin.
	tr, err = d.Apply(Operation{
		Kind: OpSynthesis, Problem: "SubB", Designer: "bob",
		Assignments: []Assignment{{Prop: "Pb", Value: domain.Real(15)}},
		MotivatedBy: []string{"Split"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.IsSpin {
		t.Error("cross-subsystem fix must count as spin")
	}
	if d.Spins() != 1 {
		t.Errorf("Spins = %d", d.Spins())
	}
	// Re-verify everything; process completes.
	for _, prob := range []string{"SubB", "Top"} {
		if _, err := d.Apply(Operation{Kind: OpVerification, Problem: prob, Designer: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Done() {
		t.Errorf("expected done; statuses: Top=%v SubA=%v SubB=%v violations=%v",
			d.Problem("Top").Status(), d.Problem("SubA").Status(),
			d.Problem("SubB").Status(), d.Net.Violations())
	}
	if d.Stage() != len(d.History()) {
		t.Error("stage/history mismatch")
	}
}

func TestADPMFlow(t *testing.T) {
	d := mustDPM(t, ADPM)
	// Alice binds Pa=40; propagation immediately narrows Pb.
	tr, err := d.Apply(Operation{
		Kind: OpSynthesis, Problem: "SubA", Designer: "alice",
		Assignments: []Assignment{{Prop: "Pa", Value: domain.Real(40)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Evaluations == 0 {
		t.Error("ADPM synthesis must run propagation (evals > 0)")
	}
	iv, _ := d.Net.Property("Pb").Feasible().Interval()
	if iv.Hi > 20+1e-9 {
		t.Errorf("Pb feasible = %v, want upper bound 20", iv)
	}
	// A violating choice is detected immediately without verification.
	tr, err = d.Apply(Operation{
		Kind: OpSynthesis, Problem: "SubB", Designer: "bob",
		Assignments: []Assignment{{Prop: "Pb", Value: domain.Real(30)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.NewViolations) != 1 || tr.NewViolations[0] != "Split" {
		t.Errorf("ADPM should detect Split violation, got %v", tr.NewViolations)
	}
	// Bob backtracks into the feasible window; all statuses propagate
	// to Satisfied and the process is done for leaves... Top requires
	// constraint Satisfied status from interval propagation: with all
	// three bound, statuses are point-like and exact.
	if _, err := d.Apply(Operation{
		Kind: OpSynthesis, Problem: "SubB", Designer: "bob",
		Assignments: []Assignment{{Prop: "Pb", Value: domain.Real(15)}},
		MotivatedBy: []string{"Split"},
	}); err != nil {
		t.Fatal(err)
	}
	if !d.Done() {
		t.Errorf("expected done; violations=%v Top=%v", d.Net.Violations(), d.Problem("Top").Status())
	}
}

func TestVerifySkipsUnboundArgs(t *testing.T) {
	d := mustDPM(t, Conventional)
	tr, err := d.Apply(Operation{Kind: OpVerification, Problem: "Top", Designer: "leader"})
	if err != nil {
		t.Fatal(err)
	}
	// Split has unbound args (Pa, Pb): the tool cannot run.
	if tr.Evaluations != 0 {
		t.Errorf("evals = %d, want 0 (args unbound)", tr.Evaluations)
	}
	if d.Net.Status("Split") != constraint.Consistent {
		t.Errorf("Split = %v, want Consistent", d.Net.Status("Split"))
	}
}

func TestApplyErrors(t *testing.T) {
	d := mustDPM(t, Conventional)
	if _, err := d.Apply(Operation{Kind: OpSynthesis, Problem: "nope"}); err == nil {
		t.Error("unknown problem accepted")
	}
	if _, err := d.Apply(Operation{
		Kind: OpSynthesis, Problem: "SubA",
		Assignments: []Assignment{{Prop: "nope", Value: domain.Real(1)}},
	}); err == nil {
		t.Error("unknown property accepted")
	}
	if _, err := d.Apply(Operation{
		Kind: OpVerification, Problem: "SubA", Verify: []string{"nope"},
	}); err == nil {
		t.Error("unknown constraint accepted")
	}
	if _, err := d.Apply(Operation{Kind: OpDecomposition, Problem: "SubA"}); err == nil {
		t.Error("decomposition of leaf accepted")
	}
	if _, err := d.Apply(Operation{Kind: OpKind(99), Problem: "SubA"}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestDecompositionOperation(t *testing.T) {
	d := mustDPM(t, Conventional)
	tr, err := d.Apply(Operation{Kind: OpDecomposition, Problem: "Top", Designer: "leader"})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Op.Kind != OpDecomposition {
		t.Error("transition lost kind")
	}
	if d.Problem("SubA").Status() != Open || d.Problem("SubB").Status() != Open {
		t.Error("children not opened")
	}
}

func TestIsCrossSubsystem(t *testing.T) {
	d := mustDPM(t, Conventional)
	if !d.IsCrossSubsystem(d.Net.Constraint("Split")) {
		t.Error("Split spans alice/bob/leader properties")
	}
	if d.IsCrossSubsystem(d.Net.Constraint("AMin")) {
		t.Error("AMin is local to alice")
	}
}

func TestNewValidation(t *testing.T) {
	net := constraint.NewNetwork()
	if _, err := New(net, []*Problem{{Name: "P", Outputs: []string{"x"}}}, Conventional); err == nil {
		t.Error("unknown output property accepted")
	}
	if _, err := New(net, []*Problem{{Name: "P", Constraints: []string{"c"}}}, Conventional); err == nil {
		t.Error("unknown constraint accepted")
	}
	if _, err := New(net, []*Problem{{Name: "P"}, {Name: "P"}}, Conventional); err == nil {
		t.Error("duplicate problem accepted")
	}
}

func TestOperationString(t *testing.T) {
	op := Operation{
		Kind: OpSynthesis, Problem: "SubA", Designer: "alice",
		Assignments: []Assignment{{Prop: "Pa", Value: domain.Real(40)}},
		MotivatedBy: []string{"Split"},
	}
	s := op.String()
	for _, part := range []string{"synthesis", "SubA", "alice", "Pa=40", "Split"} {
		if !strings.Contains(s, part) {
			t.Errorf("op string %q missing %q", s, part)
		}
	}
	v := Operation{Kind: OpVerification, Problem: "Top", Designer: "l", Verify: []string{"Split"}}
	if !strings.Contains(v.String(), "verify=[Split]") {
		t.Errorf("verify op string = %q", v.String())
	}
}
