package constraint

import (
	"math"
	"strings"
	"testing"

	"repro/internal/domain"
	"repro/internal/expr"
	"repro/internal/interval"
)

func TestParseRelation(t *testing.T) {
	good := map[string]Relation{
		"<=": LE, "<": LT, ">=": GE, ">": GT, "==": EQ, "=": EQ, "!=": NE,
	}
	for s, want := range good {
		got, err := ParseRelation(s)
		if err != nil || got != want {
			t.Errorf("ParseRelation(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseRelation("<>"); err == nil {
		t.Error("ParseRelation(<>) should fail")
	}
}

func TestParseConstraint(t *testing.T) {
	c, err := ParseConstraint("power", "Pf + Ps <= PM")
	if err != nil {
		t.Fatal(err)
	}
	if c.Rel != LE {
		t.Errorf("Rel = %v", c.Rel)
	}
	args := c.Args()
	if len(args) != 3 || args[0] != "PM" || args[1] != "Pf" || args[2] != "Ps" {
		t.Errorf("Args = %v", args)
	}
	if got := c.String(); got != "power: Pf + Ps <= PM" {
		t.Errorf("String = %q", got)
	}

	if _, err := ParseConstraint("bad", "x + y"); err == nil {
		t.Error("constraint without relation should fail")
	}
	if _, err := ParseConstraint("bad", "x + <= y"); err == nil {
		t.Error("malformed lhs should fail")
	}
	if _, err := ParseConstraint("bad", "x <= y +"); err == nil {
		t.Error("malformed rhs should fail")
	}
}

func TestMustParseConstraintPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseConstraint on bad input did not panic")
		}
	}()
	MustParseConstraint("bad", "no relation here")
}

func TestStatusOver(t *testing.T) {
	env := expr.MapIntervalEnv{}
	cases := []struct {
		src  string
		x    interval.Interval
		want Status
	}{
		{"x <= 10", interval.New(0, 5), Satisfied},
		{"x <= 10", interval.New(11, 20), Violated},
		{"x <= 10", interval.New(5, 15), Consistent},
		{"x <= 10", interval.New(0, 10), Satisfied}, // boundary counts
		{"x < 10", interval.New(0, 10), Consistent},
		{"x < 10", interval.New(10, 12), Violated},
		{"x >= 3", interval.New(3, 9), Satisfied},
		{"x >= 3", interval.New(0, 1), Violated},
		{"x > 3", interval.New(0, 3), Violated},
		{"x == 5", interval.Point(5), Satisfied},
		{"x == 5", interval.New(6, 8), Violated},
		{"x == 5", interval.New(4, 6), Consistent},
		{"x != 5", interval.New(6, 8), Satisfied},
		{"x != 5", interval.Point(5), Violated},
		{"x != 5", interval.New(4, 6), Consistent},
	}
	for _, c := range cases {
		con := MustParseConstraint("t", c.src)
		env["x"] = c.x
		if got := con.StatusOver(env); got != c.want {
			t.Errorf("%q with x=%v: status %v, want %v", c.src, c.x, got, c.want)
		}
	}
}

func TestStatusEmptyDomainIsViolated(t *testing.T) {
	con := MustParseConstraint("t", "x <= 10")
	env := expr.MapIntervalEnv{"x": interval.Empty()}
	if got := con.StatusOver(env); got != Violated {
		t.Errorf("status over empty domain = %v, want Violated", got)
	}
}

func TestHoldsAt(t *testing.T) {
	con := MustParseConstraint("t", "x + y <= 10")
	ok, known := con.HoldsAt(expr.MapEnv{"x": 3, "y": 4})
	if !known || !ok {
		t.Errorf("3+4<=10: ok=%v known=%v", ok, known)
	}
	ok, known = con.HoldsAt(expr.MapEnv{"x": 9, "y": 4})
	if !known || ok {
		t.Errorf("9+4<=10: ok=%v known=%v", ok, known)
	}
	_, known = con.HoldsAt(expr.MapEnv{"x": 9})
	if known {
		t.Error("missing y should be unknown")
	}
}

func TestFixDirection(t *testing.T) {
	env := expr.MapIntervalEnv{
		"x": interval.New(1, 5),
		"y": interval.New(1, 5),
	}
	// x <= 10: increasing x raises diff, so fixing means decreasing.
	c := MustParseConstraint("t1", "x <= 10")
	if d := c.FixDirection("x", env); d != -1 {
		t.Errorf("x<=10 dir = %d, want -1", d)
	}
	// x >= 3: fix by increasing x.
	c = MustParseConstraint("t2", "x >= 3")
	if d := c.FixDirection("x", env); d != +1 {
		t.Errorf("x>=3 dir = %d, want +1", d)
	}
	// -x <= 10: fix by increasing x.
	c = MustParseConstraint("t3", "-x <= 10")
	if d := c.FixDirection("x", env); d != +1 {
		t.Errorf("-x<=10 dir = %d, want +1", d)
	}
	// x * y <= 10 with y in [1,5]: decreasing x helps.
	c = MustParseConstraint("t4", "x * y <= 10")
	if d := c.FixDirection("x", env); d != -1 {
		t.Errorf("x*y<=10 dir = %d, want -1", d)
	}
	// Equality: x == 3 with x in [4,6] (diff positive) → decrease.
	c = MustParseConstraint("t5", "x == 3")
	env2 := expr.MapIntervalEnv{"x": interval.New(4, 6)}
	if d := c.FixDirection("x", env2); d != -1 {
		t.Errorf("x==3 above dir = %d, want -1", d)
	}
	env2["x"] = interval.New(0, 2)
	if d := c.FixDirection("x", env2); d != +1 {
		t.Errorf("x==3 below dir = %d, want +1", d)
	}
	// min(x,y) <= 5: monotonicity unknown → 0.
	c = MustParseConstraint("t6", "min(x, y) <= 5")
	if d := c.FixDirection("x", env); d != 0 {
		t.Errorf("min dir = %d, want 0", d)
	}
}

func TestMonoOverride(t *testing.T) {
	// Paper §3.1.2: "filter loss constraints are monotonic decreasing in
	// the resonator length": declaring the helpful direction explicitly.
	c := MustParseConstraint("loss", "min(L, W) <= Budget")
	c.MonoOverride = map[string]int{"L": -1} // decreasing L helps satisfy
	env := expr.MapIntervalEnv{}
	if d := c.FixDirection("L", env); d != -1 {
		t.Errorf("override dir = %d, want -1", d)
	}
	// Without override min() gives no direction.
	if d := c.FixDirection("W", env); d != 0 {
		t.Errorf("W dir = %d, want 0", d)
	}
	// GE relation: helpful direction passes through directly.
	c2 := MustParseConstraint("g", "min(L, W) >= Floor")
	c2.MonoOverride = map[string]int{"L": +1}
	if d := c2.FixDirection("L", env); d != +1 {
		t.Errorf("GE override dir = %d, want +1", d)
	}
}

func TestMargin(t *testing.T) {
	env := expr.MapIntervalEnv{"x": interval.Point(7)}
	c := MustParseConstraint("m", "x <= 10")
	if got := c.Margin(env); got != -3 {
		t.Errorf("margin = %v, want -3 (3 of slack)", got)
	}
	env["x"] = interval.Point(12)
	if got := c.Margin(env); got != 2 {
		t.Errorf("margin = %v, want 2 (violated by 2)", got)
	}
	c = MustParseConstraint("m2", "x >= 10")
	if got := c.Margin(env); got != -2 {
		t.Errorf(">= margin = %v, want -2", got)
	}
	c = MustParseConstraint("m3", "x == 10")
	if got := c.Margin(env); got != 2 {
		t.Errorf("== margin = %v, want 2", got)
	}
}

func TestRequiredDiffNE(t *testing.T) {
	c := MustParseConstraint("ne", "x != 5")
	b := expr.MapBox{"x": interval.New(0, 10)}
	res := c.Narrow(b)
	if res.Inconsistent || len(res.Changed) != 0 {
		t.Errorf("NE narrowing should be a no-op, got %+v", res)
	}
	if !b["x"].Equal(interval.New(0, 10)) {
		t.Error("NE narrowing changed domain")
	}
}

func TestConstraintNarrow(t *testing.T) {
	// The paper's §2.4 receiver example in miniature: gain >= 48 with
	// gain = k * W and k in [16, 20]: W must be >= 48/20 = 2.4.
	c := MustParseConstraint("gain", "k * W >= 48")
	b := expr.MapBox{
		"k": interval.New(16, 20),
		"W": interval.New(0.5, 10),
	}
	res := c.Narrow(b)
	if res.Inconsistent {
		t.Fatal("unexpected inconsistency")
	}
	if got := b["W"]; math.Abs(got.Lo-2.4) > 1e-9 {
		t.Errorf("W = %v, want lower bound 2.4", got)
	}
}

func TestStatusStringNames(t *testing.T) {
	if Satisfied.String() != "Satisfied" || Violated.String() != "Violated" ||
		Consistent.String() != "Consistent" {
		t.Error("Status names wrong")
	}
	if !strings.Contains(Status(9).String(), "9") {
		t.Error("unknown status should include number")
	}
}

func propDom(lo, hi float64) domain.Domain { return domain.NewInterval(lo, hi) }
