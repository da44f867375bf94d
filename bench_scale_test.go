package adpm

// Size-sweep benchmarks for the propagation engine over the parametric
// network families in internal/scenario (grid, layers, hub, sparse),
// N from 10² to 10⁵ properties. Two axes:
//
//   - BenchmarkPropagateScale: from-scratch fixpoint cost per family
//     per size — the raw scaling curve.
//   - BenchmarkPropagateIncremental: per-edit re-propagation on the
//     many-region sparse family — full ResetFeasible+Propagate after a
//     single rebinding vs the dirty-region incremental path.
//
// Latency distributions are recorded in one stats.LogHist per sweep
// point, Reset between points so the steady state allocates nothing.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/constraint"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// scaleBenchOpts sizes the revise budget so no generated family is
// capped (the 2000-revision default is tuned for paper-scale nets).
func scaleBenchOpts(net *constraint.Network) constraint.PropagateOptions {
	return constraint.PropagateOptions{MaxRevisions: 40*net.NumConstraints() + 1000}
}

// scaleBenchNets caches built networks across sub-benchmarks so the
// generator and parser run once per (family, size). Benchmarks that
// bind properties must build their own copy instead.
var scaleBenchNets = map[string]*constraint.Network{}

func scaleBenchNet(b *testing.B, fam string, n int) *constraint.Network {
	b.Helper()
	key := fmt.Sprintf("%s:%d", fam, n)
	if net, ok := scaleBenchNets[key]; ok {
		return net
	}
	net, err := scenario.MustScale(fam, n, 1).Scenario.BuildNetwork()
	if err != nil {
		b.Fatalf("build %s: %v", key, err)
	}
	scaleBenchNets[key] = net
	return net
}

// BenchmarkPropagateScale sweeps from-scratch propagation over every
// family and size. ns/op is the full ResetFeasible+Propagate cycle;
// p50/p99 come from a per-iteration histogram.
func BenchmarkPropagateScale(b *testing.B) {
	var h stats.LogHist
	for _, fam := range scenario.ScaleFamilies() {
		for _, n := range []int{100, 1000, 10000, 100000} {
			b.Run(fmt.Sprintf("%s/n=%d", fam, n), func(b *testing.B) {
				net := scaleBenchNet(b, fam, n)
				opts := scaleBenchOpts(net)
				// One untimed pass warms the scratch workspace and shadow
				// trees so allocs/op is the steady state even when b.N is 1
				// (the 10⁵ points run seconds per iteration).
				net.ResetFeasible()
				net.Propagate(opts)
				h.Reset()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t0 := time.Now()
					net.ResetFeasible()
					res := net.Propagate(opts)
					h.Observe(time.Since(t0).Nanoseconds())
					if res.Capped {
						b.Fatalf("capped at %d revisions", res.Revisions)
					}
				}
				b.ReportMetric(float64(h.Quantile(0.5)), "p50-ns")
				b.ReportMetric(float64(h.Quantile(0.99)), "p99-ns")
			})
		}
	}
}

// BenchmarkPropagateIncremental measures re-propagation after one
// property edit on the 10⁴ sparse family (157 independent regions).
// The "full" variant is what a caller without dirty tracking must do;
// "incremental" re-propagates only the edited property's region.
func BenchmarkPropagateIncremental(b *testing.B) {
	sn := scenario.MustScale("sparse", 10000, 1)
	build := func() *constraint.Network {
		net, err := sn.Scenario.BuildNetwork()
		if err != nil {
			b.Fatal(err)
		}
		return net
	}
	prop := sn.Ops[0].Assignments[0].Prop
	val := sn.Witness[prop]

	b.Run("full-after-edit", func(b *testing.B) {
		net := build()
		opts := scaleBenchOpts(net)
		net.ResetFeasible()
		net.Propagate(opts) // warm scratch (see BenchmarkPropagateScale)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := net.BindReal(prop, val); err != nil {
				b.Fatal(err)
			}
			net.ResetFeasible()
			if res := net.Propagate(opts); res.Capped {
				b.Fatalf("capped at %d revisions", res.Revisions)
			}
		}
	})

	b.Run("incremental-after-edit", func(b *testing.B) {
		net := build()
		opts := scaleBenchOpts(net)
		opts.Incremental = true
		// Establish the fixpoint marker the incremental path resumes from.
		net.ResetFeasible()
		if res := net.Propagate(opts); res.Capped {
			b.Fatalf("capped at %d revisions", res.Revisions)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := net.BindReal(prop, val); err != nil {
				b.Fatal(err)
			}
			if res := net.Propagate(opts); res.Capped {
				b.Fatalf("capped at %d revisions", res.Revisions)
			}
		}
	})
}
