// Incremental propagation tests over generated scale
// networks. These live in an external test package so they can import
// internal/scenario (which itself depends on internal/constraint).
package constraint_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/constraint"
	"repro/internal/interval"
	"repro/internal/scenario"
)

// bigBudget returns options with a revise budget no generated fixpoint
// hits, so incremental equivalence holds unconditionally.
func bigBudget(net *constraint.Network) constraint.PropagateOptions {
	return constraint.PropagateOptions{MaxRevisions: 40*net.NumConstraints() + 1000}
}

// netState captures the observables two runs must agree on bit-for-bit.
func netState(net *constraint.Network) map[string]interval.Interval {
	out := make(map[string]interval.Interval, net.NumProperties())
	for _, p := range net.Properties() {
		out[p.Name] = net.Domain(p.Name)
	}
	return out
}

func assertStateEqual(t *testing.T, label string, ref, got *constraint.Network) {
	t.Helper()
	rs, gs := netState(ref), netState(got)
	bad := 0
	for name, riv := range rs {
		if giv := gs[name]; giv != riv {
			bad++
			if bad <= 3 {
				t.Errorf("%s: window %s: ref [%v, %v] vs got [%v, %v]", label, name, riv.Lo, riv.Hi, giv.Lo, giv.Hi)
			}
		}
	}
	if bad > 3 {
		t.Errorf("%s: %d windows differ in total", label, bad)
	}
	for _, c := range ref.Constraints() {
		if ref.Status(c.Name) != got.Status(c.Name) {
			t.Fatalf("%s: status %s: ref %v vs got %v", label, c.Name, ref.Status(c.Name), got.Status(c.Name))
		}
	}
	if bad > 0 {
		t.FailNow()
	}
}

// TestIncrementalMatchesFull is the incremental soundness property
// test: after every step of a seeded random op sequence (bind to a
// random in-range value, sometimes unbind), Propagate{Incremental}
// must leave windows and statuses bit-identical to ResetFeasible plus
// a from-scratch full Propagate on an identically mutated network —
// while only re-propagating dirty regions.
func TestIncrementalMatchesFull(t *testing.T) {
	for _, fam := range scenario.ScaleFamilies() {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/s%d", fam, seed), func(t *testing.T) {
				sn := scenario.MustScale(fam, 800, seed)
				ref, err := sn.Scenario.BuildNetwork()
				if err != nil {
					t.Fatal(err)
				}
				inc, err := sn.Scenario.BuildNetwork()
				if err != nil {
					t.Fatal(err)
				}
				opts := bigBudget(ref)
				incOpts := opts
				incOpts.Incremental = true

				if res := inc.Propagate(incOpts); res.Capped {
					t.Fatal("initial incremental run capped")
				}
				ref.ResetFeasible()
				if res := ref.Propagate(opts); res.Capped {
					t.Fatal("initial full run capped")
				}
				assertStateEqual(t, "initial", ref, inc)

				rng := rand.New(rand.NewSource(seed * 13))
				props := ref.Properties()
				var bound []string
				sawSavings := false
				for step := 0; step < 25; step++ {
					if len(bound) > 0 && rng.Intn(4) == 0 {
						i := rng.Intn(len(bound))
						name := bound[i]
						bound = append(bound[:i], bound[i+1:]...)
						ref.Unbind(name)
						inc.Unbind(name)
					} else {
						p := props[rng.Intn(len(props))]
						iv, _ := p.Init.Interval()
						v := iv.Lo + rng.Float64()*(iv.Hi-iv.Lo)
						if err := ref.BindReal(p.Name, v); err != nil {
							t.Fatal(err)
						}
						if err := inc.BindReal(p.Name, v); err != nil {
							t.Fatal(err)
						}
						bound = append(bound, p.Name)
					}
					incRes := inc.Propagate(incOpts)
					ref.ResetFeasible()
					refRes := ref.Propagate(opts)
					if incRes.Capped || refRes.Capped {
						t.Fatalf("step %d: capped run (inc=%v full=%v); raise the budget", step, incRes.Capped, refRes.Capped)
					}
					if incRes.Revisions < refRes.Revisions {
						sawSavings = true
					}
					if incRes.Revisions > refRes.Revisions {
						t.Errorf("step %d: incremental did MORE revisions (%d) than full (%d)", step, incRes.Revisions, refRes.Revisions)
					}
					assertStateEqual(t, fmt.Sprintf("step %d", step), ref, inc)
				}
				if (fam == "sparse" || fam == "hub") && !sawSavings {
					t.Errorf("%s: incremental never did fewer revisions than full", fam)
				}

				// A structural edit invalidates the marker; the next
				// incremental run must fall back to a full run and still
				// match.
				pa, pb := props[0].Name, props[1].Name
				c, err := constraint.ParseConstraint("late_edge", pa+" + "+pb+" <= 1000000")
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range []*constraint.Network{ref, inc} {
					if err := n.AddConstraint(c); err != nil {
						t.Fatal(err)
					}
				}
				opts2 := bigBudget(ref)
				incOpts2 := opts2
				incOpts2.Incremental = true
				inc.Propagate(incOpts2)
				ref.ResetFeasible()
				ref.Propagate(opts2)
				assertStateEqual(t, "post-structural-edit", ref, inc)
			})
		}
	}
}

// TestIncrementalNoDirtyIsFree: with a valid marker and no dirty
// properties, an incremental run does zero revisions and changes
// nothing.
func TestIncrementalNoDirtyIsFree(t *testing.T) {
	sn := scenario.MustScale("sparse", 500, 1)
	net, err := sn.Scenario.BuildNetwork()
	if err != nil {
		t.Fatal(err)
	}
	opts := bigBudget(net)
	opts.Incremental = true
	first := net.Propagate(opts)
	if first.Revisions == 0 {
		t.Fatal("initial run did no work")
	}
	before := netState(net)
	again := net.Propagate(opts)
	if again.Revisions != 0 || again.Evaluations != 0 {
		t.Errorf("no-dirty incremental run did work: %d revisions, %d evals", again.Revisions, again.Evaluations)
	}
	for name, iv := range netState(net) {
		if before[name] != iv {
			t.Fatalf("no-dirty incremental run changed window %s", name)
		}
	}
}

// ExampleNetwork_Propagate_incremental is the README's scale example: an
// incremental run leaves a fixpoint marker, so after one edit the next
// incremental run re-derives only the edited property's region (sparse
// blocks of 64 properties are separate regions).
func ExampleNetwork_Propagate_incremental() {
	sn := scenario.MustScale("sparse", 10000, 1)
	net, err := sn.Scenario.BuildNetwork()
	if err != nil {
		fmt.Println(err)
		return
	}
	opts := constraint.PropagateOptions{
		MaxRevisions: 40*net.NumConstraints() + 1000,
		Incremental:  true,
	}
	first := net.Propagate(opts)
	if err := net.BindReal("p001234", 3.5); err != nil {
		fmt.Println(err)
		return
	}
	again := net.Propagate(opts)
	fmt.Println("fewer revisions:", again.Revisions < first.Revisions)
	fmt.Println("edited region re-derived:", net.Rederived("p001234"))
	fmt.Println("other region re-derived:", net.Rederived("p000001"))
	// Output:
	// fewer revisions: true
	// edited region re-derived: true
	// other region re-derived: false
}

// TestIncrementalCloneCarriesMarker: a copy of a fixpoint is a fixpoint.
// An incremental run on a clone (first-time and reused destination)
// does no work until the clone is edited, then re-derives exactly the
// edited region — bit-identical to reset + full on the same edit — and
// says so through Rederived. A dirty property of the source is carried
// across as well.
func TestIncrementalCloneCarriesMarker(t *testing.T) {
	sn := scenario.MustScale("sparse", 500, 1)
	src, err := sn.Scenario.BuildNetwork()
	if err != nil {
		t.Fatal(err)
	}
	opts := bigBudget(src)
	incOpts := opts
	incOpts.Incremental = true
	first := src.Propagate(incOpts)
	if first.Capped {
		t.Fatal("initial run capped")
	}
	a, b := "p000001", "p000100" // blocks of 64 are separate regions
	if src.RegionOf(a) == src.RegionOf(b) {
		t.Fatalf("%s and %s share a region", a, b)
	}
	if !src.Rederived(a) || !src.Rederived(b) {
		t.Fatal("a full run must report every region re-derived")
	}

	dst := &constraint.Network{}
	for round := 0; round < 2; round++ { // slow path, then fast path
		src.CloneInto(dst)
		if res := dst.Propagate(incOpts); res.Revisions != 0 {
			t.Fatalf("round %d: unedited clone did %d revisions", round, res.Revisions)
		}
		if dst.Rederived(a) || dst.Rederived(b) {
			t.Fatalf("round %d: a run that skipped every region reports one re-derived", round)
		}

		src.CloneInto(dst)
		if err := dst.BindReal(a, sn.Witness[a]); err != nil {
			t.Fatal(err)
		}
		res := dst.Propagate(incOpts)
		if res.Revisions == 0 || res.Revisions >= first.Revisions {
			t.Fatalf("round %d: edited clone did %d revisions, full run %d", round, res.Revisions, first.Revisions)
		}
		if !dst.Rederived(a) || dst.Rederived(b) {
			t.Fatalf("round %d: Rederived(%s)=%v Rederived(%s)=%v, want true false",
				round, a, dst.Rederived(a), b, dst.Rederived(b))
		}
		ref := src.Clone()
		if err := ref.BindReal(a, sn.Witness[a]); err != nil {
			t.Fatal(err)
		}
		ref.ResetFeasible()
		ref.Propagate(opts)
		assertStateEqual(t, fmt.Sprintf("round %d", round), ref, dst)
	}

	// An edit the source has not propagated yet travels with the copy.
	if err := src.BindReal(b, sn.Witness[b]); err != nil {
		t.Fatal(err)
	}
	src.CloneInto(dst)
	dst.Propagate(incOpts)
	if dst.Rederived(a) || !dst.Rederived(b) {
		t.Fatalf("carried dirty set: Rederived(%s)=%v Rederived(%s)=%v, want false true",
			a, dst.Rederived(a), b, dst.Rederived(b))
	}
	src.Propagate(incOpts)
	assertStateEqual(t, "carried dirty set", src, dst)
}

// TestIncrementalRederivesExternalStatus: a status written outside
// propagation is overwritten by a full run, so the incremental run has
// to re-derive its region — and only that one.
func TestIncrementalRederivesExternalStatus(t *testing.T) {
	sn := scenario.MustScale("sparse", 500, 1)
	net, err := sn.Scenario.BuildNetwork()
	if err != nil {
		t.Fatal(err)
	}
	opts := bigBudget(net)
	opts.Incremental = true
	first := net.Propagate(opts)
	c := net.Constraints()[0]
	want := net.Status(c.Name)
	if want == constraint.Violated {
		t.Fatalf("%s is violated on a satisfiable network", c.Name)
	}
	net.SetStatus(c.Name, constraint.Violated)
	res := net.Propagate(opts)
	if got := net.Status(c.Name); got != want {
		t.Errorf("status %v after the incremental run, want the propagated %v", got, want)
	}
	if res.Revisions == 0 || res.Revisions >= first.Revisions {
		t.Errorf("%d revisions, want one region's share of %d", res.Revisions, first.Revisions)
	}
	if !net.Rederived(c.Args()[0]) {
		t.Errorf("the constraint's region is not reported re-derived")
	}
}
