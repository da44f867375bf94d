package dcm_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/constraint"
	"repro/internal/dcm"
	"repro/internal/dddl"
	"repro/internal/domain"
	"repro/internal/dpm"
	"repro/internal/scenario"
	"repro/internal/teamsim"
)

// corpusSeeds is the seed count per (scenario, mode) of the differential
// corpus (testdata/differential_seed.json at the module root).
const corpusSeeds = 16

// history runs one corpus configuration and returns its scenario and
// the operations it executed.
func history(t *testing.T, name string, mode dpm.Mode, seed int64) (*dddl.Scenario, []dpm.Operation) {
	t.Helper()
	scn, err := scenario.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := teamsim.Run(teamsim.Config{Scenario: scn, Mode: mode, Seed: seed, MaxOps: 3000})
	if err != nil {
		t.Fatal(err)
	}
	var ops []dpm.Operation
	for _, tr := range res.Process.History() {
		ops = append(ops, tr.Op)
	}
	return scn, ops
}

// sameViews requires every owner's view of d to equal the reference
// view, Resynthesize aside (a func, and a search when called).
func sameViews(t *testing.T, d *dpm.DPM, owners []string, at string) {
	t.Helper()
	for _, id := range owners {
		got, want := dcm.BuildView(d, id), dcm.BuildViewReference(d, id)
		if (got.Resynthesize == nil) != (want.Resynthesize == nil) {
			t.Fatalf("%s: designer %s: Resynthesize set %v, reference %v",
				at, id, got.Resynthesize != nil, want.Resynthesize != nil)
		}
		got.Resynthesize, want.Resynthesize = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: designer %s: view differs from the reference\n got %+v\nwant %+v", at, id, got, want)
		}
	}
}

// TestBuildViewMatchesReference replays every corpus history and, after
// every operation, compares each designer's view with the reference
// that re-derives everything per call.
func TestBuildViewMatchesReference(t *testing.T) {
	for _, name := range []string{"simplified", "receiver"} {
		for _, mode := range []dpm.Mode{dpm.Conventional, dpm.ADPM} {
			for seed := int64(1); seed <= corpusSeeds; seed++ {
				name, mode, seed := name, mode, seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", name, mode, seed), func(t *testing.T) {
					if testing.Short() && name == "receiver" && mode == dpm.Conventional {
						t.Skip("long conventional receiver histories skipped in -short mode")
					}
					scn, ops := history(t, name, mode, seed)
					d, err := dpm.FromScenario(scn, mode)
					if err != nil {
						t.Fatal(err)
					}
					owners := scn.Owners()
					sameViews(t, d, owners, "stage 0")
					for i, op := range ops {
						if _, err := d.Apply(op); err != nil {
							t.Fatalf("op %d: %v", i, err)
						}
						sameViews(t, d, owners, fmt.Sprintf("after op %d (%v)", i, op))
					}
				})
			}
		}
	}
}

// TestBuildViewPlanInvalidation covers the plan's cache key: a
// constraint added mid-run and a replaced network must be seen by the
// next view, and a fork's views must not share its parent's plan.
func TestBuildViewPlanInvalidation(t *testing.T) {
	for _, mode := range []dpm.Mode{dpm.Conventional, dpm.ADPM} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			scn, ops := history(t, "receiver", mode, 3)
			owners := scn.Owners()
			half := len(ops) / 2

			t.Run("AddConstraint", func(t *testing.T) {
				d, err := dpm.FromScenario(scn, mode)
				if err != nil {
					t.Fatal(err)
				}
				for _, op := range ops[:half] {
					if _, err := d.Apply(op); err != nil {
						t.Fatal(err)
					}
				}
				sameViews(t, d, owners, "before the edit")
				owner, prop := firstOutput(t, d, owners)
				hi, _ := d.Net.Property(prop).Init.Interval()
				c := constraint.MustParseConstraint("Extra", fmt.Sprintf("%s >= %g", prop, hi.Hi+1))
				if err := d.Net.AddConstraint(c); err != nil {
					t.Fatal(err)
				}
				d.Net.SetStatus("Extra", constraint.Violated)
				sameViews(t, d, owners, "after AddConstraint")
				if !hasViolation(dcm.BuildView(d, owner), "Extra") {
					t.Fatalf("designer %s's view misses the added violated constraint on %s", owner, prop)
				}
				for i, op := range ops[half:] {
					if _, err := d.Apply(op); err != nil {
						t.Fatalf("op %d: %v", half+i, err)
					}
					sameViews(t, d, owners, fmt.Sprintf("after op %d", half+i))
				}
			})

			t.Run("ReplacedNet", func(t *testing.T) {
				d, err := dpm.FromScenario(scn, mode)
				if err != nil {
					t.Fatal(err)
				}
				for _, op := range ops[:half] {
					if _, err := d.Apply(op); err != nil {
						t.Fatal(err)
					}
				}
				sameViews(t, d, owners, "before the swap")
				d.Net = d.Net.Clone()
				for i, op := range ops[half:] {
					if _, err := d.Apply(op); err != nil {
						t.Fatalf("op %d: %v", half+i, err)
					}
					sameViews(t, d, owners, fmt.Sprintf("after op %d", half+i))
				}
			})

			t.Run("Fork", func(t *testing.T) {
				tmpl, err := dpm.FromScenario(scn, mode)
				if err != nil {
					t.Fatal(err)
				}
				sameViews(t, tmpl, owners, "template")
				forks := []*dpm.DPM{tmpl.Fork(), tmpl.Fork()}
				var wg sync.WaitGroup
				errs := make([]error, len(forks))
				for k, f := range forks {
					wg.Add(1)
					go func(k int, f *dpm.DPM) {
						defer wg.Done()
						for i, op := range ops {
							if _, err := f.Apply(op); err != nil {
								errs[k] = fmt.Errorf("fork %d op %d: %v", k, i, err)
								return
							}
							for _, id := range owners {
								dcm.BuildView(f, id)
							}
						}
					}(k, f)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						t.Fatal(err)
					}
				}
				// The forks ran the same history from the same state.
				for _, id := range owners {
					a, b := dcm.BuildView(forks[0], id), dcm.BuildView(forks[1], id)
					a.Resynthesize, b.Resynthesize = nil, nil
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("designer %s: twin forks' views differ", id)
					}
				}
				sameViews(t, forks[0], owners, "fork after the history")
				sameViews(t, tmpl, owners, "template beside its forks")
			})
		})
	}
}

// signDoc has views whose state-dependent parts move with bindings:
// Sq's sign in W follows W's sign, Bal's fix direction follows the sign
// of P + Q − 10, and Gap reaches X through both A and B with opposite
// advice.
const signDoc = `
scenario view_signs

object Blk owner eng {
    property W real [-10, 10]
    property P real [0, 10]
    property Q real [0, 10]
    property X real [0, 10]
    property Y real [0, 10]
    property Z real [0, 10]

    derived A real [0, 20]   = X + Y
    derived B real [-10, 10] = X - Z
}

constraint Sq:  sqr(W) <= 50
constraint Bal: P + Q == 10
constraint Gap: A - B >= 25

problem Work owner eng {
    outputs { W, P, Q, X, Y, Z }
    constraints { Sq, Bal, Gap }
}
`

// TestBuildViewFollowsState checks, beside the reference, that a view
// re-evaluates what depends on state — monotone signs, equality fix
// directions — on every call, and merges disagreeing paths to 0.
func TestBuildViewFollowsState(t *testing.T) {
	for _, mode := range []dpm.Mode{dpm.Conventional, dpm.ADPM} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			scn, err := dddl.ParseString(signDoc)
			if err != nil {
				t.Fatal(err)
			}
			d, err := dpm.FromScenario(scn, mode)
			if err != nil {
				t.Fatal(err)
			}
			owners := []string{"eng"}
			bind := func(vals ...any) {
				t.Helper()
				op := dpm.Operation{Kind: dpm.OpSynthesis, Problem: "Work", Designer: "eng"}
				for i := 0; i < len(vals); i += 2 {
					op.Assignments = append(op.Assignments,
						dpm.Assignment{Prop: vals[i].(string), Value: domain.Real(vals[i+1].(float64))})
				}
				if _, err := d.Apply(op); err != nil {
					t.Fatal(err)
				}
				sameViews(t, d, owners, fmt.Sprint(vals))
			}
			sameViews(t, d, owners, "stage 0")
			check := func(prop string, inc, dec []string, sat int) {
				t.Helper()
				pi := dcm.BuildView(d, "eng").Props[prop]
				if !reflect.DeepEqual(pi.IncreasingIn, inc) || !reflect.DeepEqual(pi.DecreasingIn, dec) || pi.SatVotes != sat {
					t.Errorf("%s: increasing %v decreasing %v votes %d, want %v %v %d",
						prop, pi.IncreasingIn, pi.DecreasingIn, pi.SatVotes, inc, dec, sat)
				}
			}
			// Unbound W straddles 0: Sq's sign is unknown. X gets +1 from
			// Gap through A and -1 through B: merged to 0.
			check("W", nil, nil, 0)
			check("X", nil, []string{"A.def", "B.def"}, 0)
			bind("W", 3.0, "P", 2.0, "Q", 3.0)
			check("W", []string{"Sq"}, nil, -1)
			check("P", []string{"Bal"}, nil, +1)
			bind("W", -3.0, "P", 9.0)
			check("W", nil, []string{"Sq"}, +1)
			check("P", []string{"Bal"}, nil, -1)
			bind("X", 1.0, "Y", 2.0, "Z", 3.0)
			check("X", nil, []string{"A.def", "B.def"}, 0)
		})
	}
}

// firstOutput returns the first owner with a problem output, and that
// output.
func firstOutput(t *testing.T, d *dpm.DPM, owners []string) (string, string) {
	t.Helper()
	for _, id := range owners {
		for _, p := range d.ProblemsOwnedBy(id) {
			if len(p.Outputs) > 0 {
				return id, p.Outputs[0]
			}
		}
	}
	t.Fatal("no problem output")
	return "", ""
}

func hasViolation(v *dcm.View, name string) bool {
	for _, vi := range v.Violations {
		if vi.Constraint == name {
			return true
		}
	}
	return false
}
