package constraint

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/domain"
	"repro/internal/expr"
)

// buildRandomSatNet generates a random constraint network together with
// a witness point it is guaranteed to satisfy: constraints are built by
// evaluating random expressions at the witness and placing the
// thresholds with slack on the satisfied side.
func buildRandomSatNet(rng *rand.Rand, nProps, nCons int) (*Network, map[string]float64) {
	net := NewNetwork()
	witness := map[string]float64{}
	var names []string
	for i := 0; i < nProps; i++ {
		name := fmt.Sprintf("p%d", i)
		lo := rng.Float64() * 10
		hi := lo + 1 + rng.Float64()*50
		w := lo + (0.15+0.7*rng.Float64())*(hi-lo)
		if err := net.AddProperty(NewProperty(name, domain.NewInterval(lo, hi))); err != nil {
			panic(err)
		}
		witness[name] = w
		names = append(names, name)
	}
	env := expr.MapEnv(witness)
	made := 0
	for attempt := 0; made < nCons && attempt < nCons*20; attempt++ {
		node := randomPosExpr(rng, names, 2)
		val, err := expr.Eval(node, env)
		if err != nil || math.IsNaN(val) || math.IsInf(val, 0) || math.Abs(val) > 1e9 {
			continue
		}
		slack := 0.1 + rng.Float64()*math.Max(1, math.Abs(val))
		var src string
		if rng.Intn(2) == 0 {
			src = fmt.Sprintf("%s <= %g", node, val+slack)
		} else {
			src = fmt.Sprintf("%s >= %g", node, val-slack)
		}
		c, err := ParseConstraint(fmt.Sprintf("c%d", made), src)
		if err != nil {
			continue
		}
		if err := net.AddConstraint(c); err != nil {
			continue
		}
		made++
	}
	return net, witness
}

// randomPosExpr builds a random expression whose subtrees stay within
// the positive domains of sqrt/log.
func randomPosExpr(rng *rand.Rand, names []string, depth int) expr.Node {
	if depth <= 0 || rng.Intn(3) == 0 {
		if rng.Intn(4) == 0 {
			return &expr.Num{Val: math.Round(rng.Float64()*200) / 10}
		}
		return &expr.Var{Name: names[rng.Intn(len(names))]}
	}
	switch rng.Intn(6) {
	case 0:
		return &expr.Binary{Op: '+', X: randomPosExpr(rng, names, depth-1), Y: randomPosExpr(rng, names, depth-1)}
	case 1:
		return &expr.Binary{Op: '-', X: randomPosExpr(rng, names, depth-1), Y: randomPosExpr(rng, names, depth-1)}
	case 2:
		return &expr.Binary{Op: '*', X: randomPosExpr(rng, names, depth-1), Y: randomPosExpr(rng, names, depth-1)}
	case 3:
		return &expr.Call{Fn: "sqrt", Args: []expr.Node{&expr.Var{Name: names[rng.Intn(len(names))]}}}
	case 4:
		return &expr.Call{Fn: "sqr", Args: []expr.Node{randomPosExpr(rng, names, depth-1)}}
	default:
		return &expr.Binary{Op: '/', X: randomPosExpr(rng, names, depth-1),
			Y: &expr.Num{Val: 1 + rng.Float64()*9}}
	}
}

// TestQuickPropagationPreservesWitness: for random satisfiable
// networks, propagation must neither flag violations nor narrow any
// feasible subspace past the witness — with all properties unbound,
// and with a random subset bound at the witness.
func TestQuickPropagationPreservesWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(1618))
	for trial := 0; trial < 60; trial++ {
		net, witness := buildRandomSatNet(rng, 3+rng.Intn(3), 2+rng.Intn(4))

		res := net.Propagate(PropagateOptions{})
		if len(res.Violated) > 0 {
			t.Fatalf("trial %d: satisfiable net flagged %v", trial, res.Violated)
		}
		for name, w := range witness {
			if !net.Property(name).Feasible().Contains(domain.Real(w)) {
				t.Fatalf("trial %d: propagation excluded witness %s=%v (feasible %v)",
					trial, name, w, net.Property(name).Feasible())
			}
		}

		// Bind a random subset at the witness and re-propagate.
		net.ResetFeasible()
		for name, w := range witness {
			if rng.Intn(2) == 0 {
				if err := net.BindReal(name, w); err != nil {
					t.Fatal(err)
				}
			}
		}
		res = net.Propagate(PropagateOptions{})
		if len(res.Violated) > 0 {
			t.Fatalf("trial %d (partial binding): flagged %v", trial, res.Violated)
		}
		for name, w := range witness {
			p := net.Property(name)
			if p.IsBound() {
				continue
			}
			if !p.Feasible().Contains(domain.Real(w)) {
				t.Fatalf("trial %d (partial binding): excluded witness %s=%v (feasible %v)",
					trial, name, w, p.Feasible())
			}
		}
	}
}
