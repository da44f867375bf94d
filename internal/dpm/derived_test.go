package dpm

import (
	"math"
	"testing"

	"repro/internal/dddl"
	"repro/internal/domain"
	"repro/internal/interval"
)

const derivedDoc = `
scenario derived_test

object Specs {
    property MaxPower real [0, 100]
    property MinGain  real [0, 100]
}
object Amp owner circuit {
    property W real [1, 10]
    property I real [1, 20]

    derived Gain  real [0, 1000] = 4 * W * sqrt(I)
    derived Power real [0, 400]  = 9 * I + 2 * W
}
object Sys {
    derived Margin real [-500, 500] = Gain - MinGain
}

constraint GainSpec:  Gain >= MinGain
constraint PowerSpec: Power <= MaxPower

problem Top owner leader {
    inputs { MinGain, MaxPower }
    constraints { GainSpec, PowerSpec }
}
problem AmpDesign owner circuit {
    outputs { W, I }
    constraints { }
}
decompose Top -> AmpDesign

require MaxPower = 80
require MinGain = 30
`

func derivedDPM(t *testing.T, mode Mode) *DPM {
	t.Helper()
	scn, err := dddl.ParseString(derivedDoc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := FromScenario(scn, mode)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDerivedRecomputedOnBinding(t *testing.T) {
	d := derivedDPM(t, Conventional)
	if d.Net.Property("Gain").IsBound() {
		t.Fatal("Gain bound before its inputs")
	}
	// Margin depends on the bound requirement and the (unbound) Gain:
	// it must not compute yet.
	if d.Net.Property("Margin").IsBound() {
		t.Fatal("Margin computed before Gain available")
	}
	bind := func(prop string, v float64) {
		t.Helper()
		if _, err := d.Apply(Operation{
			Kind: OpSynthesis, Problem: "AmpDesign", Designer: "circuit",
			Assignments: []Assignment{{Prop: prop, Value: domain.Real(v)}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	bind("W", 5)
	if d.Net.Property("Gain").IsBound() {
		t.Fatal("Gain computed with I still unbound")
	}
	bind("I", 4)
	gain, ok := d.Net.Property("Gain").Value()
	if !ok || math.Abs(gain.Num()-40) > 1e-9 { // 4*5*2
		t.Fatalf("Gain = %v, want 40", gain)
	}
	power, _ := d.Net.Property("Power").Value()
	if math.Abs(power.Num()-46) > 1e-9 { // 36+10
		t.Fatalf("Power = %v, want 46", power)
	}
	// Multi-level chain: Margin = Gain - MinGain = 10.
	margin, ok := d.Net.Property("Margin").Value()
	if !ok || math.Abs(margin.Num()-10) > 1e-9 {
		t.Fatalf("Margin = %v, want 10", margin)
	}
	// Rebinding an input recomputes the affected chain.
	bind("W", 6)
	gain, _ = d.Net.Property("Gain").Value()
	if math.Abs(gain.Num()-48) > 1e-9 {
		t.Fatalf("Gain after rebind = %v, want 48", gain)
	}
	margin, _ = d.Net.Property("Margin").Value()
	if math.Abs(margin.Num()-18) > 1e-9 {
		t.Fatalf("Margin after rebind = %v, want 18", margin)
	}
}

func TestDerivedRecomputeCountsEvaluations(t *testing.T) {
	d := derivedDPM(t, Conventional)
	bind := func(prop string, v float64) *Transition {
		t.Helper()
		tr, err := d.Apply(Operation{
			Kind: OpSynthesis, Problem: "AmpDesign", Designer: "circuit",
			Assignments: []Assignment{{Prop: prop, Value: domain.Real(v)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	if tr := bind("W", 5); tr.Evaluations != 0 {
		t.Errorf("binding W alone should run no tools, got %d", tr.Evaluations)
	}
	// Binding I enables Gain, Power, and Margin: three tool runs.
	if tr := bind("I", 4); tr.Evaluations != 3 {
		t.Errorf("completing the inputs should run 3 tools, got %d", tr.Evaluations)
	}
	// Rebinding W affects Gain, Power, Margin again.
	if tr := bind("W", 6); tr.Evaluations != 3 {
		t.Errorf("rebinding W should rerun 3 tools, got %d", tr.Evaluations)
	}
}

func TestDefConstraintsSatisfiedAtFullBinding(t *testing.T) {
	d := derivedDPM(t, ADPM)
	for prop, v := range map[string]float64{"W": 5, "I": 4} {
		if _, err := d.Apply(Operation{
			Kind: OpSynthesis, Problem: "AmpDesign", Designer: "circuit",
			Assignments: []Assignment{{Prop: prop, Value: domain.Real(v)}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, cn := range []string{"Gain.def", "Power.def", "Margin.def"} {
		if s := d.Net.Status(cn); s.String() != "Satisfied" {
			t.Errorf("%s = %v, want Satisfied", cn, s)
		}
	}
	if !d.Done() {
		t.Errorf("process should be done; violations %v", d.Net.Violations())
	}
}

// TestIsDerivedPropAndDefConstraint: a derived property is one with a
// defining constraint.
func TestIsDerivedPropAndDefConstraint(t *testing.T) {
	d := derivedDPM(t, Conventional)
	if c := d.DefConstraint("Gain"); c == nil || c.Name != "Gain.def" {
		t.Errorf("DefConstraint(Gain) = %v", c)
	}
	if d.DefConstraint("W") != nil {
		t.Error("DefConstraint on plain property should be nil")
	}
}

func TestIsCrossSubsystemExpandsDerived(t *testing.T) {
	d := derivedDPM(t, Conventional)
	// GainSpec's direct args are Gain (Sys object, no owner) and MinGain
	// (ownerless spec): only through Gain's formula does it reach the
	// circuit owner — a single owner, so not cross-subsystem.
	if d.IsCrossSubsystem(d.Net.Constraint("GainSpec")) {
		t.Error("GainSpec touches only circuit properties")
	}
}

func TestMovementWindow(t *testing.T) {
	d := derivedDPM(t, ADPM)
	for prop, v := range map[string]float64{"W": 5, "I": 4} {
		if _, err := d.Apply(Operation{
			Kind: OpSynthesis, Problem: "AmpDesign", Designer: "circuit",
			Assignments: []Assignment{{Prop: prop, Value: domain.Real(v)}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Window for I given W=5: Gain = 20·√I >= 30 → I >= 2.25;
	// Power = 9I + 10 <= 80 → I <= 7.78.
	win := d.MovementWindow("I")
	iv, ok := win.Interval()
	if !ok || iv.IsEmpty() {
		t.Fatalf("window = %v", win)
	}
	if math.Abs(iv.Lo-2.25) > 0.01 || math.Abs(iv.Hi-70.0/9) > 0.01 {
		t.Errorf("window I = %v, want ≈[2.25, 7.78]", iv)
	}
	// The binding must be untouched.
	if v, _ := d.Net.Property("I").Value(); v.Num() != 4 {
		t.Error("MovementWindow disturbed the binding")
	}
	// Windows are refreshed into feasible subspaces by ADPM transitions.
	f := d.Net.Property("I").Feasible()
	fiv, _ := f.Interval()
	if math.Abs(fiv.Lo-2.25) > 0.01 {
		t.Errorf("feasible(I) = %v, want the movement window", fiv)
	}
	// Derived and unknown properties yield empty windows.
	if w := d.MovementWindow("Gain"); !w.IsEmpty() {
		t.Errorf("window for derived = %v, want empty", w)
	}
	if w := d.MovementWindow("nope"); !w.IsEmpty() {
		t.Errorf("window for unknown = %v, want empty", w)
	}
}

func TestMovementWindowChargesEvaluations(t *testing.T) {
	d := derivedDPM(t, ADPM)
	for prop, v := range map[string]float64{"W": 5, "I": 4} {
		if _, err := d.Apply(Operation{
			Kind: OpSynthesis, Problem: "AmpDesign", Designer: "circuit",
			Assignments: []Assignment{{Prop: prop, Value: domain.Real(v)}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	before := d.Net.EvalCount()
	d.MovementWindow("I")
	if d.Net.EvalCount() <= before {
		t.Error("movement-window exploration must cost evaluations")
	}
}

// fig2Doc is the §2.4 situation behind Fig. 2: the differential-pair
// width W is bound at 2.5 µm, and the gain and power specs leave it the
// "consistent values {2.500000 3.698225}".
const fig2Doc = `
scenario fig2

object Pair owner circuit {
    property W real [0.5, 10]
    property Gmin real [0, 100]
    property Pmax real [0, 500]
}

constraint gain: 19.2 * W >= Gmin
constraint power: 54.08 * W <= Pmax

problem Amp owner circuit {
    outputs { W, Gmin, Pmax }
    constraints { gain, power }
}
`

// TestMovementWindowReceiverExample checks Fig. 2's window on the
// served path: the window refreshMovementWindows stores as W's feasible
// subspace after the binding operation.
func TestMovementWindowReceiverExample(t *testing.T) {
	scn, err := dddl.ParseString(fig2Doc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := FromScenario(scn, ADPM)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Apply(Operation{
		Kind: OpSynthesis, Problem: "Amp", Designer: "circuit",
		Assignments: []Assignment{
			{Prop: "W", Value: domain.Real(2.5)},
			{Prop: "Gmin", Value: domain.Real(48)},
			{Prop: "Pmax", Value: domain.Real(200)},
		},
	}); err != nil {
		t.Fatal(err)
	}
	w := d.Net.Property("W")
	// gain: W >= 48/19.2 = 2.5; power: W <= 200/54.08 ≈ 3.698.
	iv, ok := w.Feasible().Interval()
	if !ok || !iv.ApproxEqual(interval.New(2.5, 200.0/54.08), 1e-6) {
		t.Errorf("window of W = %v, want [2.5, 3.698]", w.Feasible())
	}
	if v, ok := w.Value(); !ok || v.Num() != 2.5 {
		t.Errorf("binding of W = %v (%v), want 2.5", v, ok)
	}
}

func TestSpinRequiresRework(t *testing.T) {
	scn, err := dddl.ParseString(derivedDoc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := FromScenario(scn, ADPM)
	if err != nil {
		t.Fatal(err)
	}
	// A conflict fix while AmpDesign was never solved is not a spin,
	// even when motivated by a cross-subsystem constraint.
	tr, err := d.Apply(Operation{
		Kind: OpSynthesis, Problem: "AmpDesign", Designer: "circuit",
		Assignments: []Assignment{{Prop: "W", Value: domain.Real(2)}},
		MotivatedBy: []string{"GainSpec"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.IsSpin {
		t.Error("early fix counted as spin (problem never solved)")
	}
}
