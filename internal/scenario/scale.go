package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/dddl"
	"repro/internal/domain"
	"repro/internal/dpm"
)

// Scale generates large constraint-network families for the 10⁴–10⁶
// property regime the paper's 26/35-property cases cannot exercise.
// Like Random, every family is satisfiable by construction: a witness
// point is drawn first and every constraint is placed with slack around
// it (equalities are witness-exact), so the generated scenario must
// validate, build, and keep the witness inside every propagated window
// — which is what the soundness tests check. Generation is fully
// deterministic in (family, n, seed): two calls produce byte-identical
// DDDL (compare Scenario.Format()) and identical op scripts.
//
// The families stress different graph shapes:
//
//   - grid: an approximately √n×√n 4-neighbour mesh of inequality
//     constraints — one giant region with large diameter, the
//     worst case for incremental skipping.
//   - layers: a layered DAG of witness-exact derived equalities
//     (each node a convex combination of two previous-layer nodes) —
//     deep narrowing cascades, the MaxVisits stress.
//   - hub: hub-and-spoke groups — β-heavy hubs (the paper's β_i
//     metric), one small region per group.
//   - sparse: independent blocks with random binary/ternary
//     inequalities at controlled density — many small regions, the
//     showcase for incremental re-propagation.
//
// ScaleNames lists the family names; ByName accepts "family:n[:sSEED]"
// so the CLIs can run traced/pprof sessions on generated networks.
type ScaleNet struct {
	// Scenario is the generated DDDL document (validates, builds).
	Scenario *dddl.Scenario
	// Ops is the deterministic op script: witness-value syntheses with
	// periodic verifications, all passing dpm.Validate against the
	// built scenario.
	Ops []dpm.Operation
	// Witness maps every property (including derived ones) to the
	// witness point the network was built around.
	Witness map[string]float64
}

// ScaleFamilies lists the generated network families.
func ScaleFamilies() []string { return []string{"grid", "layers", "hub", "sparse"} }

// scaleProp is one generated property before AST assembly.
type scaleProp struct {
	name    string
	lo, hi  float64
	witness float64
	formula string // non-empty marks a derived property
}

// Scale generates one network family instance. n is clamped to [4,
// 1<<20] properties; the returned scenario has exactly the clamped n.
func Scale(family string, n int, seed int64) (*ScaleNet, error) {
	if n < 4 {
		n = 4
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("scenario: scale size %d exceeds the 2^20 property cap", n)
	}
	famIdx := -1
	for i, f := range ScaleFamilies() {
		if f == family {
			famIdx = i
		}
	}
	if famIdx < 0 {
		return nil, fmt.Errorf("scenario: unknown scale family %q (want one of %s)",
			family, strings.Join(ScaleFamilies(), ", "))
	}
	rng := rand.New(rand.NewSource(seed*31 + int64(n)*7919 + int64(famIdx)))

	props := make([]scaleProp, n)
	newBase := func(i int) {
		lo := math.Round(rng.Float64()*10*100) / 100
		width := 1 + rng.Float64()*99
		hi := math.Round((lo+width)*100) / 100
		props[i] = scaleProp{
			name:    fmt.Sprintf("p%06d", i),
			lo:      lo,
			hi:      hi,
			witness: lo + (0.2+0.6*rng.Float64())*(hi-lo),
		}
	}

	// Designers own contiguous property blocks.
	designers := n / 256
	if designers < 2 {
		designers = 2
	}
	if designers > 16 {
		designers = 16
	}
	ownerOf := func(pid int) int { return pid * designers / n }

	var cons []*dddl.ConstraintDecl
	probCons := make([][]string, designers)
	addCon := func(firstArg int, src string) {
		name := fmt.Sprintf("c%06d", len(cons))
		cons = append(cons, &dddl.ConstraintDecl{Name: name, Src: src})
		d := ownerOf(firstArg)
		probCons[d] = append(probCons[d], name)
	}
	// binaryLE/binaryGE place a two-variable inequality with slack
	// around the witness: satisfiable, but tight enough to narrow.
	binaryLE := func(u, v int) {
		a := math.Round((0.5+rng.Float64()*1.5)*100) / 100
		b := math.Round((0.5+rng.Float64()*1.5)*100) / 100
		s := (0.1 + 0.4*rng.Float64()) * (a*(props[u].hi-props[u].witness) + b*(props[v].hi-props[v].witness))
		c := math.Ceil((a*props[u].witness+b*props[v].witness+s)*100) / 100
		addCon(u, fmt.Sprintf("%g * %s + %g * %s <= %g", a, props[u].name, b, props[v].name, c))
	}
	binaryGE := func(u, v int) {
		a := math.Round((0.5+rng.Float64()*1.5)*100) / 100
		b := math.Round((0.5+rng.Float64()*1.5)*100) / 100
		s := (0.1 + 0.4*rng.Float64()) * (a*(props[u].witness-props[u].lo) + b*(props[v].witness-props[v].lo))
		c := math.Floor((a*props[u].witness+b*props[v].witness-s)*100) / 100
		addCon(u, fmt.Sprintf("%g * %s + %g * %s >= %g", a, props[u].name, b, props[v].name, c))
	}

	var reqs []*dddl.Requirement
	require := func(pid int) {
		reqs = append(reqs, &dddl.Requirement{
			Property: props[pid].name,
			Value:    domain.Real(props[pid].witness),
		})
	}
	// designPids collects the properties a synthesis op may bind
	// (non-derived, non-required).
	var designPids []int

	switch family {
	case "grid":
		g := int(math.Ceil(math.Sqrt(float64(n))))
		for i := 0; i < n; i++ {
			newBase(i)
		}
		for r := 0; r*g < n; r++ {
			for c := 0; c < g && r*g+c < n; c++ {
				i := r*g + c
				if c+1 < g && i+1 < n {
					if rng.Intn(5) == 0 {
						binaryGE(i, i+1)
					} else {
						binaryLE(i, i+1)
					}
				}
				if i+g < n {
					if rng.Intn(5) == 0 {
						binaryGE(i, i+g)
					} else {
						binaryLE(i, i+g)
					}
				}
			}
		}
		reqd := make(map[int]bool)
		for i := 0; i < n; i += g + 1 {
			require(i)
			reqd[i] = true
		}
		for i := 0; i < n; i++ {
			if !reqd[i] {
				designPids = append(designPids, i)
			}
		}

	case "layers":
		w := int(math.Ceil(math.Sqrt(float64(n))))
		for i := 0; i < w && i < n; i++ {
			newBase(i)
			if i%2 == 1 {
				designPids = append(designPids, i)
			} else {
				require(i)
			}
		}
		for i := w; i < n; i++ {
			l := i / w
			u := (l-1)*w + rng.Intn(w)
			v := (l-1)*w + rng.Intn(w)
			a := 0.3 + 0.4*rng.Float64()
			b := 1 - a
			c0 := math.Round(rng.Float64()*5*100) / 100
			// Witness and bounds computed in the same float evaluation
			// order the parsed formula uses, so the derived equality is
			// witness-exact to the last bit.
			props[i] = scaleProp{
				name:    fmt.Sprintf("p%06d", i),
				lo:      a*props[u].lo + b*props[v].lo + c0 - 1,
				hi:      a*props[u].hi + b*props[v].hi + c0 + 1,
				witness: a*props[u].witness + b*props[v].witness + c0,
				formula: fmt.Sprintf("%g * %s + %g * %s + %g", a, props[u].name, b, props[v].name, c0),
			}
			if i%8 == 7 {
				cap := math.Ceil((props[i].witness+0.3*(props[i].hi-props[i].witness))*100) / 100
				addCon(i, fmt.Sprintf("%s <= %g", props[i].name, cap))
			}
		}

	case "hub":
		spokes := 32
		if n < 66 {
			spokes = 8
		}
		group := spokes + 1
		for i := 0; i < n; i++ {
			newBase(i)
		}
		for h := 0; h*group < n; h++ {
			hub := h * group
			end := min(hub+group, n)
			for s := hub + 1; s < end; s++ {
				a := math.Round((0.2+rng.Float64()*1.3)*100) / 100
				if rng.Intn(4) == 0 {
					ss := (0.1 + 0.4*rng.Float64()) * ((props[s].hi - props[s].witness) + a*(props[hub].hi-props[hub].witness))
					c := math.Ceil((props[s].witness+a*props[hub].witness+ss)*100) / 100
					addCon(s, fmt.Sprintf("%s + %g * %s <= %g", props[s].name, a, props[hub].name, c))
				} else {
					ss := (0.1 + 0.4*rng.Float64()) * (props[s].hi - props[s].witness)
					c := math.Ceil((props[s].witness-a*props[hub].witness+ss)*100) / 100
					addCon(s, fmt.Sprintf("%s - %g * %s <= %g", props[s].name, a, props[hub].name, c))
				}
			}
			if h%2 == 0 {
				require(hub)
			} else {
				designPids = append(designPids, hub)
			}
			for s := hub + 1; s < end; s++ {
				designPids = append(designPids, s)
			}
		}

	case "sparse":
		const block = 64
		for i := 0; i < n; i++ {
			newBase(i)
		}
		for b0 := 0; b0 < n; b0 += block {
			size := min(block, n-b0)
			edges := size + size/5 // density ≈ 1.2 constraints per property
			if size < 3 {
				edges = size - 1
			}
			for e := 0; e < edges; e++ {
				u := b0 + rng.Intn(size)
				v := b0 + rng.Intn(size)
				if v == u {
					v = b0 + (u-b0+1)%size
				}
				switch rng.Intn(5) {
				case 0:
					binaryGE(u, v)
				case 1:
					x := b0 + rng.Intn(size)
					if x == u || x == v {
						x = b0 + (max(u, v)-b0+1)%size
					}
					a := math.Round((0.5+rng.Float64())*100) / 100
					b := math.Round((0.5+rng.Float64())*100) / 100
					c := math.Round((0.5+rng.Float64())*100) / 100
					s := (0.1 + 0.4*rng.Float64()) * (a*(props[u].hi-props[u].witness) + b*(props[v].hi-props[v].witness) + c*(props[x].hi-props[x].witness))
					d := math.Ceil((a*props[u].witness+b*props[v].witness+c*props[x].witness+s)*100) / 100
					addCon(u, fmt.Sprintf("%g * %s + %g * %s + %g * %s <= %g",
						a, props[u].name, b, props[v].name, c, props[x].name, d))
				default:
					binaryLE(u, v)
				}
			}
			if (b0/block)%2 == 0 {
				require(b0)
				for i := b0 + 1; i < b0+size; i++ {
					designPids = append(designPids, i)
				}
			} else {
				for i := b0; i < b0+size; i++ {
					designPids = append(designPids, i)
				}
			}
		}
	}

	// Assemble the AST: objects and problems per designer, a Top problem
	// decomposed into them, constraints attached to the problem of their
	// first argument's owner.
	scn := &dddl.Scenario{
		Name:         fmt.Sprintf("%s_%d_s%d", family, n, seed),
		Constraints:  cons,
		Requirements: reqs,
	}
	for d := 0; d < designers; d++ {
		scn.Objects = append(scn.Objects, &dddl.ObjectDecl{
			Name:  fmt.Sprintf("B%02d", d),
			Owner: fmt.Sprintf("d%02d", d),
		})
	}
	witness := make(map[string]float64, n)
	for i := range props {
		p := &props[i]
		witness[p.name] = p.witness
		scn.Properties = append(scn.Properties, &dddl.PropertyDecl{
			Name:    p.name,
			Object:  fmt.Sprintf("B%02d", ownerOf(i)),
			Owner:   fmt.Sprintf("d%02d", ownerOf(i)),
			Domain:  domain.NewInterval(p.lo, p.hi),
			Formula: p.formula,
		})
	}
	scn.Problems = append(scn.Problems, &dddl.ProblemDecl{Name: "Top", Owner: "lead"})
	var children []string
	outs := make([][]string, designers)
	for i := range props {
		outs[ownerOf(i)] = append(outs[ownerOf(i)], props[i].name)
	}
	for d := 0; d < designers; d++ {
		name := fmt.Sprintf("P%02d", d)
		scn.Problems = append(scn.Problems, &dddl.ProblemDecl{
			Name:        name,
			Owner:       fmt.Sprintf("d%02d", d),
			Outputs:     outs[d],
			Constraints: probCons[d],
		})
		children = append(children, name)
	}
	scn.Decompositions = append(scn.Decompositions, &dddl.Decomposition{Parent: "Top", Children: children})

	// Deterministic op script: witness-value syntheses over design
	// properties with periodic whole-problem verifications.
	var ops []dpm.Operation
	k := min(64, len(designPids))
	for i := 0; i < k; i++ {
		pid := designPids[rng.Intn(len(designPids))]
		d := ownerOf(pid)
		prob := fmt.Sprintf("P%02d", d)
		who := fmt.Sprintf("d%02d", d)
		ops = append(ops, dpm.Operation{
			Kind:     dpm.OpSynthesis,
			Problem:  prob,
			Designer: who,
			Assignments: []dpm.Assignment{
				{Prop: props[pid].name, Value: domain.Real(props[pid].witness)},
			},
		})
		if i%8 == 7 {
			ops = append(ops, dpm.Operation{Kind: dpm.OpVerification, Problem: prob, Designer: who})
		}
	}

	return &ScaleNet{Scenario: scn, Ops: ops, Witness: witness}, nil
}

// MustScale is Scale panicking on error, for tests and benchmarks.
func MustScale(family string, n int, seed int64) *ScaleNet {
	sn, err := Scale(family, n, seed)
	if err != nil {
		panic(err)
	}
	return sn
}

// scaleByName parses a generated-scenario name of the form
// "family:n[:sSEED]" (e.g. "grid:10000", "sparse:4096:s7"). The second
// return is false when the name does not look like a scale name at all
// (so ByName can fall through to its unknown-name error).
func scaleByName(name string) (*dddl.Scenario, bool, error) {
	parts := strings.Split(name, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return nil, false, nil
	}
	fam := parts[0]
	ok := false
	for _, f := range ScaleFamilies() {
		if f == fam {
			ok = true
		}
	}
	if !ok {
		return nil, false, nil
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, true, fmt.Errorf("scenario: bad scale size in %q: %v", name, err)
	}
	seed := int64(1)
	if len(parts) == 3 {
		if !strings.HasPrefix(parts[2], "s") {
			return nil, true, fmt.Errorf("scenario: bad scale seed in %q (want :sSEED)", name)
		}
		seed, err = strconv.ParseInt(parts[2][1:], 10, 64)
		if err != nil {
			return nil, true, fmt.Errorf("scenario: bad scale seed in %q: %v", name, err)
		}
	}
	sn, err := Scale(fam, n, seed)
	if err != nil {
		return nil, true, err
	}
	return sn.Scenario, true, nil
}
