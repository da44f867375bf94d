package constraint

import (
	"testing"

	"repro/internal/domain"
	"repro/internal/interval"
)

// buildPowerNet builds the paper's running example: Pf + Ps <= PM with
// PM bound to 200 (the receiver's power budget).
func buildPowerNet(t *testing.T) *Network {
	t.Helper()
	n := NewNetwork()
	for _, p := range []struct {
		name   string
		lo, hi float64
		owner  string
	}{
		{"Pf", 0, 500, "circuit"},
		{"Ps", 0, 500, "circuit"},
		{"PM", 0, 500, "leader"},
	} {
		pr := NewProperty(p.name, propDom(p.lo, p.hi))
		pr.Owner = p.owner
		if err := n.AddProperty(pr); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.AddConstraint(MustParseConstraint("power", "Pf + Ps <= PM")); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestAddValidation(t *testing.T) {
	n := NewNetwork()
	if err := n.AddProperty(NewProperty("", propDom(0, 1))); err == nil {
		t.Error("empty property name accepted")
	}
	if err := n.AddProperty(NewProperty("x", propDom(0, 1))); err != nil {
		t.Fatal(err)
	}
	if err := n.AddProperty(NewProperty("x", propDom(0, 1))); err == nil {
		t.Error("duplicate property accepted")
	}
	if err := n.AddConstraint(MustParseConstraint("c", "x <= y")); err == nil {
		t.Error("constraint over unknown property accepted")
	}
	if err := n.AddProperty(NewProperty("s", domain.NewStringSet("a", "b"))); err != nil {
		t.Fatal(err)
	}
	if err := n.AddConstraint(MustParseConstraint("c", "x <= s")); err == nil {
		t.Error("constraint over string property accepted")
	}
	if err := n.AddConstraint(MustParseConstraint("c", "x <= 1")); err != nil {
		t.Fatal(err)
	}
	if err := n.AddConstraint(MustParseConstraint("c", "x <= 2")); err == nil {
		t.Error("duplicate constraint accepted")
	}
	if err := n.AddConstraint(New("", nil, LE, nil)); err == nil {
		t.Error("empty constraint name accepted")
	}
}

func TestBindAndEvaluate(t *testing.T) {
	n := buildPowerNet(t)
	if err := n.BindReal("PM", 200); err != nil {
		t.Fatal(err)
	}
	if err := n.BindReal("Pf", 150); err != nil {
		t.Fatal(err)
	}
	if err := n.BindReal("Ps", 80); err != nil {
		t.Fatal(err)
	}
	// 150 + 80 > 200: violated.
	if v := n.EvaluateAll(); len(v) != 1 || v[0] != "power" {
		t.Errorf("violations = %v", v)
	}
	if n.Status("power") != Violated {
		t.Error("status not recorded")
	}
	if n.NumViolations() != 1 {
		t.Error("NumViolations wrong")
	}
	if n.Alpha("Pf") != 1 || n.Alpha("PM") != 1 {
		t.Errorf("alpha = %d/%d, want 1/1", n.Alpha("Pf"), n.Alpha("PM"))
	}
	// Fix: lower Ps.
	if err := n.BindReal("Ps", 40); err != nil {
		t.Fatal(err)
	}
	if v := n.EvaluateAll(); v != nil {
		t.Errorf("violations after fix = %v", v)
	}
	if n.Alpha("Pf") != 0 {
		t.Error("alpha should drop to 0 after fix")
	}
	if n.EvalCount() != 2 {
		t.Errorf("EvalCount = %d, want 2", n.EvalCount())
	}
	// Bind of unknown property errors.
	if err := n.BindReal("nope", 1); err == nil {
		t.Error("bind unknown property accepted")
	}
	// Kind mismatch errors.
	if err := n.Bind("Pf", domain.Str("x")); err == nil {
		t.Error("kind-mismatched bind accepted")
	}
}

func TestBetaCounts(t *testing.T) {
	n := NewNetwork()
	for _, name := range []string{"a", "b", "c", "d"} {
		if err := n.AddProperty(NewProperty(name, propDom(0, 10))); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd := func(c *Constraint) {
		t.Helper()
		if err := n.AddConstraint(c); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(MustParseConstraint("c1", "a + b <= 10"))
	mustAdd(MustParseConstraint("c2", "a * c <= 10"))
	mustAdd(MustParseConstraint("c3", "a >= 1"))
	mustAdd(MustParseConstraint("c4", "d <= 5"))
	if n.Beta("a") != 3 || n.Beta("b") != 1 || n.Beta("d") != 1 {
		t.Errorf("beta: a=%d b=%d d=%d", n.Beta("a"), n.Beta("b"), n.Beta("d"))
	}
	// Indirect: b relates through c1 to a, and via a to c2 and c3.
	if got := n.BetaIndirect("b"); got != 3 {
		t.Errorf("BetaIndirect(b) = %d, want 3 (c1 + c2 + c3)", got)
	}
	// d only has c4, no neighbours.
	if got := n.BetaIndirect("d"); got != 1 {
		t.Errorf("BetaIndirect(d) = %d, want 1", got)
	}
	if cs := n.ConstraintsOn("a"); len(cs) != 3 || cs[0].Name != "c1" {
		t.Errorf("ConstraintsOn(a) = %v", cs)
	}
}

func TestPropagateNarrowsFeasible(t *testing.T) {
	n := buildPowerNet(t)
	if err := n.BindReal("PM", 200); err != nil {
		t.Fatal(err)
	}
	if err := n.BindReal("Ps", 150); err != nil {
		t.Fatal(err)
	}
	res := n.Propagate(PropagateOptions{})
	if len(res.Violated) != 0 {
		t.Fatalf("unexpected violations %v", res.Violated)
	}
	// Pf must be narrowed to [0, 50] (within the propagation engine's
	// conservative inflation, which scales with operand magnitudes).
	f := n.Property("Pf").Feasible()
	iv, _ := f.Interval()
	if !iv.ApproxEqual(interval.New(0, 50), 1e-6) {
		t.Errorf("feasible Pf = %v, want [0,50]", iv)
	}
	if res.Evaluations <= 0 {
		t.Error("no evaluations counted")
	}
	found := false
	for _, p := range res.Narrowed {
		if p == "Pf" {
			found = true
		}
	}
	if !found {
		t.Errorf("Narrowed = %v, want to include Pf", res.Narrowed)
	}
}

func TestPropagateDetectsViolation(t *testing.T) {
	n := buildPowerNet(t)
	for prop, v := range map[string]float64{"PM": 200, "Pf": 150, "Ps": 100} {
		if err := n.BindReal(prop, v); err != nil {
			t.Fatal(err)
		}
	}
	res := n.Propagate(PropagateOptions{})
	if len(res.Violated) != 1 || res.Violated[0] != "power" {
		t.Errorf("Violated = %v", res.Violated)
	}
	if n.Alpha("Pf") != 1 {
		t.Error("alpha not updated by propagation")
	}
}

func TestPropagateChains(t *testing.T) {
	// a <= b, b <= c, c bound to 10: both a and b should narrow to <= 10.
	n := NewNetwork()
	for _, name := range []string{"a", "b", "c"} {
		if err := n.AddProperty(NewProperty(name, propDom(0, 100))); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.AddConstraint(MustParseConstraint("ab", "a <= b")); err != nil {
		t.Fatal(err)
	}
	if err := n.AddConstraint(MustParseConstraint("bc", "b <= c")); err != nil {
		t.Fatal(err)
	}
	if err := n.BindReal("c", 10); err != nil {
		t.Fatal(err)
	}
	res := n.Propagate(PropagateOptions{})
	if len(res.Violated) != 0 {
		t.Fatalf("violations: %v", res.Violated)
	}
	for _, p := range []string{"a", "b"} {
		iv, _ := n.Property(p).Feasible().Interval()
		if !iv.ApproxEqual(interval.New(0, 10), 1e-9) {
			t.Errorf("feasible %s = %v, want [0,10]", p, iv)
		}
	}
}

func TestPropagateEmptiesDomain(t *testing.T) {
	// Conflicting requirements leave no feasible values for x.
	n := NewNetwork()
	if err := n.AddProperty(NewProperty("x", propDom(0, 100))); err != nil {
		t.Fatal(err)
	}
	if err := n.AddConstraint(MustParseConstraint("lo", "x >= 60")); err != nil {
		t.Fatal(err)
	}
	if err := n.AddConstraint(MustParseConstraint("hi", "x <= 40")); err != nil {
		t.Fatal(err)
	}
	res := n.Propagate(PropagateOptions{})
	// One of the two constraints must surface as violated once the
	// domain empties, and x's feasible set must be empty.
	if !n.Property("x").Feasible().IsEmpty() {
		t.Errorf("feasible x = %v, want empty", n.Property("x").Feasible())
	}
	if len(res.Violated) == 0 {
		t.Error("conflicting requirements produced no violation")
	}
	if len(res.Emptied) != 1 || res.Emptied[0] != "x" {
		t.Errorf("Emptied = %v, want [x]", res.Emptied)
	}
}

func TestPropagateTerminatesOnCycle(t *testing.T) {
	// x == y/2, y == x/2 contracts asymptotically toward 0;
	// the revision cap and min-shrink threshold must stop it.
	n := NewNetwork()
	for _, name := range []string{"x", "y"} {
		if err := n.AddProperty(NewProperty(name, propDom(-1000, 1000))); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.AddConstraint(MustParseConstraint("c1", "x == y / 2")); err != nil {
		t.Fatal(err)
	}
	if err := n.AddConstraint(MustParseConstraint("c2", "y == x / 2")); err != nil {
		t.Fatal(err)
	}
	res := n.Propagate(PropagateOptions{MaxRevisions: 500})
	if res.Revisions > 500 {
		t.Errorf("revisions = %d exceeds cap", res.Revisions)
	}
	// Domains must have contracted and still contain the solution 0.
	iv, _ := n.Property("x").Feasible().Interval()
	if !iv.Contains(0) {
		t.Errorf("feasible x = %v lost the solution 0", iv)
	}
	if iv.Width() >= 2000 {
		t.Errorf("no contraction happened: %v", iv)
	}
}

func TestPropagateDiscreteDomain(t *testing.T) {
	// Discrete choice set filtered by a constraint: standard inductor
	// values with Freq_ind <= 0.5.
	n := NewNetwork()
	p := NewProperty("L", domain.NewRealSet(0.1, 0.2, 0.5, 1.0, 2.2))
	if err := n.AddProperty(p); err != nil {
		t.Fatal(err)
	}
	if err := n.AddConstraint(MustParseConstraint("c", "L <= 0.5")); err != nil {
		t.Fatal(err)
	}
	n.Propagate(PropagateOptions{})
	want := domain.NewRealSet(0.1, 0.2, 0.5)
	if !p.Feasible().Equal(want) {
		t.Errorf("feasible L = %v, want %v", p.Feasible(), want)
	}
}

func TestSnapshotRestore(t *testing.T) {
	n := buildPowerNet(t)
	if err := n.BindReal("PM", 200); err != nil {
		t.Fatal(err)
	}
	snap := n.Snapshot()
	if err := n.BindReal("Pf", 300); err != nil {
		t.Fatal(err)
	}
	if err := n.BindReal("Ps", 300); err != nil {
		t.Fatal(err)
	}
	n.EvaluateAll()
	n.Propagate(PropagateOptions{})
	if n.Status("power") != Violated {
		t.Fatal("setup: expected violation")
	}
	n.Restore(snap)
	if n.Status("power") != Consistent {
		t.Error("status not restored")
	}
	if n.Property("Pf").IsBound() {
		t.Error("binding not removed by restore")
	}
	if v, ok := n.Property("PM").Value(); !ok || v.Num() != 200 {
		t.Error("pre-snapshot binding lost")
	}
	if n.EvalCount() != snap.evals {
		t.Error("eval counter not restored")
	}
	f := n.Property("Pf").Feasible()
	iv, _ := f.Interval()
	if !iv.Equal(interval.New(0, 500)) {
		t.Errorf("feasible not restored: %v", iv)
	}
}

func TestClone(t *testing.T) {
	n := buildPowerNet(t)
	if err := n.BindReal("PM", 200); err != nil {
		t.Fatal(err)
	}
	c := n.Clone()
	if err := c.BindReal("Pf", 100); err != nil {
		t.Fatal(err)
	}
	if n.Property("Pf").IsBound() {
		t.Error("clone shares property state with original")
	}
	c.EvaluateAll()
	if n.EvalCount() == c.EvalCount() {
		t.Error("clone shares eval counter")
	}
	if c.NumProperties() != 3 || c.NumConstraints() != 1 {
		t.Error("clone lost structure")
	}
}

func TestUnbindAndFeasibleValue(t *testing.T) {
	n := buildPowerNet(t)
	if err := n.BindReal("Pf", 100); err != nil {
		t.Fatal(err)
	}
	n.Unbind("Pf")
	if n.Property("Pf").IsBound() {
		t.Error("Unbind failed")
	}
	n.Unbind("missing") // no panic
	if !n.Property("Pf").Feasible().Contains(domain.Real(100)) {
		t.Error("100 should be feasible for Pf")
	}
	if n.Property("Pf").Feasible().Contains(domain.Real(1000)) {
		t.Error("1000 outside E_i should not be feasible")
	}
}

func TestResetFeasible(t *testing.T) {
	n := buildPowerNet(t)
	if err := n.BindReal("PM", 100); err != nil {
		t.Fatal(err)
	}
	n.Propagate(PropagateOptions{})
	iv, _ := n.Property("Pf").Feasible().Interval()
	if iv.Hi > 100.001 {
		t.Fatalf("setup: expected narrowing, got %v", iv)
	}
	n.ResetFeasible()
	iv, _ = n.Property("Pf").Feasible().Interval()
	if !iv.Equal(interval.New(0, 500)) {
		t.Errorf("reset feasible = %v", iv)
	}
}

func TestNetworkEnvInterfaces(t *testing.T) {
	n := buildPowerNet(t)
	if err := n.BindReal("PM", 200); err != nil {
		t.Fatal(err)
	}
	// IntervalEnv: bound -> point, unbound -> feasible hull.
	if got := n.Domain("PM"); !got.Equal(interval.Point(200)) {
		t.Errorf("Domain(PM) = %v", got)
	}
	if got := n.Domain("Pf"); !got.Equal(interval.New(0, 500)) {
		t.Errorf("Domain(Pf) = %v", got)
	}
	if got := n.Domain("unknown"); !got.IsEntire() {
		t.Errorf("Domain(unknown) = %v", got)
	}
	// FloatEnv
	if v, ok := n.Value("PM"); !ok || v != 200 {
		t.Errorf("Value(PM) = %v, %v", v, ok)
	}
	if _, ok := n.Value("Pf"); ok {
		t.Error("unbound property should not report a value")
	}
}

func TestSortedPropertyNames(t *testing.T) {
	n := buildPowerNet(t)
	names := n.SortedPropertyNames()
	if len(names) != 3 || names[0] != "PM" || names[1] != "Pf" || names[2] != "Ps" {
		t.Errorf("sorted names = %v", names)
	}
}
