package dcm

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dddl"
	"repro/internal/domain"
	"repro/internal/dpm"
)

const chainDoc = `
scenario chain_test

object Specs {
    property MaxPower real [0, 1000]
    property MinGain  real [0, 1000]
}
object Blk owner eng {
    property W real [1, 10]
    property I real [1, 20]
    property R real [1, 100]

    derived Gain  real [0, 4000]  = 5 * W * sqrt(I)
    derived Loss  real [0, 100]   = 200 / R
    derived Power real [0, 1000]  = 10 * I + sqr(W)
}
object Sys {
    derived NetGain real [-200, 4000] = Gain - Loss
}

constraint GainSpec:  NetGain >= MinGain
constraint PowerSpec: Power <= MaxPower

problem Top owner lead {
    inputs { MinGain, MaxPower }
    constraints { GainSpec, PowerSpec }
}
problem Work owner eng {
    outputs { W, I, R }
    constraints { }
}
decompose Top -> Work

require MaxPower = 200
require MinGain = 60
`

func chainDPM(t *testing.T) *dpm.DPM {
	t.Helper()
	scn, err := dddl.ParseString(chainDoc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dpm.FromScenario(scn, dpm.ADPM)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func bindChain(t *testing.T, d *dpm.DPM, vals map[string]float64) {
	t.Helper()
	for prop, v := range vals {
		if _, err := d.Apply(dpm.Operation{
			Kind: dpm.OpSynthesis, Problem: "Work", Designer: "eng",
			Assignments: []dpm.Assignment{{Prop: prop, Value: domain.Real(v)}},
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExpandFixDirectionsThroughChain(t *testing.T) {
	d := chainDPM(t)
	// W=2, I=4, R=10: Gain = 20, Loss = 20, NetGain = 0 < 60: violated.
	bindChain(t, d, map[string]float64{"W": 2, "I": 4, "R": 10})
	c := d.Net.Constraint("GainSpec")
	if d.Net.Status("GainSpec").String() != "Violated" {
		t.Fatalf("setup: GainSpec = %v", d.Net.Status("GainSpec"))
	}
	dirs := violation(t, BuildView(d, "eng"), "GainSpec").FixDirections
	if ref := ExpandFixDirections(d, c); !reflect.DeepEqual(dirs, ref) {
		t.Errorf("view FixDirections %v, reference %v", dirs, ref)
	}
	// Raising NetGain: Gain up → W up (+1), I up (+1); Loss down →
	// R up (+1, Loss = 200/R decreasing in R). MinGain down (-1).
	want := map[string]int{"W": +1, "I": +1, "R": +1, "MinGain": -1}
	for prop, dir := range want {
		if got := dirs[prop]; got != dir {
			t.Errorf("dir[%s] = %d, want %d (dirs=%v)", prop, got, dir, dirs)
		}
	}
	// Derived properties themselves are not handles.
	for _, derived := range []string{"Gain", "Loss", "NetGain"} {
		if _, ok := dirs[derived]; ok {
			t.Errorf("expansion leaked derived property %s", derived)
		}
	}
}

func TestExpandFixStepsChainRule(t *testing.T) {
	d := chainDPM(t)
	bindChain(t, d, map[string]float64{"W": 2, "I": 4, "R": 10})
	c := d.Net.Constraint("GainSpec")
	margin := c.Margin(d.Net) // 60 - 0 = 60
	if math.Abs(margin-60) > 1e-6 {
		t.Fatalf("margin = %v, want 60", margin)
	}
	vi := violation(t, BuildView(d, "eng"), "GainSpec")
	if vi.Margin != margin {
		t.Errorf("view margin %v, want %v", vi.Margin, margin)
	}
	steps := vi.FixSteps
	if ref := ExpandFixSteps(d, c, margin); !reflect.DeepEqual(steps, ref) {
		t.Errorf("view FixSteps %v, reference %v", steps, ref)
	}
	// ∂NetGain/∂W = 5·√I = 10 → step 6.
	if got := steps["W"]; math.Abs(got-6) > 1e-6 {
		t.Errorf("step[W] = %v, want 6", got)
	}
	// ∂NetGain/∂I = 5·W/(2√I) = 2.5 → step 24.
	if got := steps["I"]; math.Abs(got-24) > 1e-6 {
		t.Errorf("step[I] = %v, want 24", got)
	}
	// ∂NetGain/∂R = +200/R² = 2 → step 30.
	if got := steps["R"]; math.Abs(got-30) > 1e-6 {
		t.Errorf("step[R] = %v, want 30", got)
	}
	// Satisfied constraints yield no steps.
	if s := ExpandFixSteps(d, c, -5); len(s) != 0 {
		t.Errorf("negative margin produced steps %v", s)
	}
}

// violation returns the view's entry for the named violated constraint.
func violation(t *testing.T, v *View, name string) ViolationInfo {
	t.Helper()
	for _, vi := range v.Violations {
		if vi.Constraint == name {
			return vi
		}
	}
	t.Fatalf("designer %s's view lacks violation %s (has %v)", v.Designer, name, v.Violations)
	return ViolationInfo{}
}

func TestExpandFixDirectionsConflictingAdvice(t *testing.T) {
	d := chainDPM(t)
	// Make both GainSpec and PowerSpec violated: W=2, I=4 (NetGain 0),
	// and push MaxPower below current power (10·4+4=44): set via leader.
	bindChain(t, d, map[string]float64{"W": 2, "I": 4, "R": 10})
	if _, err := d.Apply(dpm.Operation{
		Kind: dpm.OpSynthesis, Problem: "Top", Designer: "lead",
		Assignments: []dpm.Assignment{{Prop: "MaxPower", Value: domain.Real(30)}},
	}); err != nil {
		t.Fatal(err)
	}
	v := BuildView(d, "eng")
	if len(v.Violations) != 2 {
		t.Fatalf("violations = %v", v.Violations)
	}
	// I appears in both with opposite advice: GainSpec +1, PowerSpec -1
	// → FixVotes 0, Alpha 2.
	pi := v.Props["I"]
	if pi.Alpha != 2 {
		t.Errorf("alpha(I) = %d, want 2", pi.Alpha)
	}
	if pi.FixVotes != 0 {
		t.Errorf("FixVotes(I) = %d, want 0 (conflicting advice)", pi.FixVotes)
	}
	// R only helps the gain violation: votes +1.
	if v.Props["R"].FixVotes != +1 {
		t.Errorf("FixVotes(R) = %d, want +1", v.Props["R"].FixVotes)
	}
}

func TestVerifiableConstraintsListing(t *testing.T) {
	scn, err := dddl.ParseString(chainDoc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dpm.FromScenario(scn, dpm.Conventional)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing bound: no verifiable constraints for the leader.
	v := BuildView(d, "lead")
	if len(v.Problems[0].VerifiableConstraints) != 0 {
		t.Errorf("verifiable before binding: %v", v.Problems[0].VerifiableConstraints)
	}
	bindChain(t, d, map[string]float64{"W": 4, "I": 9, "R": 10})
	v = BuildView(d, "lead")
	got := v.Problems[0].VerifiableConstraints
	if len(got) != 2 {
		t.Fatalf("verifiable = %v, want both specs", got)
	}
	// After verification they are decided and disappear from the list.
	if _, err := d.Apply(dpm.Operation{
		Kind: dpm.OpVerification, Problem: "Top", Designer: "lead",
	}); err != nil {
		t.Fatal(err)
	}
	v = BuildView(d, "lead")
	if len(v.Problems[0].VerifiableConstraints) != 0 {
		t.Errorf("verifiable after verification: %v", v.Problems[0].VerifiableConstraints)
	}
}

func TestMovementWindowInViewAfterConflict(t *testing.T) {
	d := chainDPM(t)
	bindChain(t, d, map[string]float64{"W": 2, "I": 4, "R": 10})
	v := BuildView(d, "eng")
	// W's movement window: NetGain >= 60 needs 5·W·2 - 20 >= 60 → W >= 8;
	// Power <= 200 needs W² <= 160 → W <= 12.65 (capped by E_i at 10).
	pi := v.Props["W"]
	iv, ok := pi.Feasible.Interval()
	if !ok || iv.IsEmpty() {
		t.Fatalf("window(W) = %v", pi.Feasible)
	}
	if math.Abs(iv.Lo-8) > 0.05 || iv.Hi < 9.9 {
		t.Errorf("window(W) = %v, want ≈[8, 10]", iv)
	}
}
