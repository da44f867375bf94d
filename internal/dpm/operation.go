package dpm

import (
	"fmt"
	"strings"

	"repro/internal/domain"
)

// OpKind classifies design operators (paper §2.1): synthesis operators
// compute output values, verification operators check constraints, and
// decomposition operators split a problem into subproblems.
type OpKind int

// Operator kinds.
const (
	// OpSynthesis binds values to problem outputs.
	OpSynthesis OpKind = iota
	// OpVerification evaluates constraints at the current point values.
	OpVerification
	// OpDecomposition activates a problem's subproblems.
	OpDecomposition
)

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case OpSynthesis:
		return "synthesis"
	case OpVerification:
		return "verification"
	case OpDecomposition:
		return "decomposition"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Assignment is one property-value binding requested by a synthesis
// operation.
type Assignment struct {
	Prop  string
	Value domain.Value
}

// Operation is a design operation θ (paper §2.1): an operator applied
// to a problem with parameter values, requested by a designer.
type Operation struct {
	// Kind selects the operator class.
	Kind OpKind
	// Problem names the problem the operator is applied to.
	Problem string
	// Designer identifies the requesting team member.
	Designer string
	// Assignments lists the bindings performed by a synthesis operator.
	Assignments []Assignment
	// Verify lists constraint names a verification operator evaluates;
	// empty means every constraint of the target problem.
	Verify []string
	// MotivatedBy lists the violated constraints that prompted this
	// operation. When any of them spans properties of multiple owners
	// the operation is a design spin (§3.1.2: an executed operation due
	// to at least one violation involving properties from multiple
	// subsystems).
	MotivatedBy []string
}

// String renders a concise description for logs and histories.
func (o Operation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s) by %s", o.Kind, o.Problem, o.Designer)
	if len(o.Assignments) > 0 {
		b.WriteString(" set")
		for _, a := range o.Assignments {
			fmt.Fprintf(&b, " %s=%s", a.Prop, a.Value)
		}
	}
	if len(o.Verify) > 0 {
		fmt.Fprintf(&b, " verify=%v", o.Verify)
	}
	if len(o.MotivatedBy) > 0 {
		fmt.Fprintf(&b, " fixing=%v", o.MotivatedBy)
	}
	return b.String()
}

// Transition records one executed design transition t_n = (s_n, s_n+1)
// along with the statistics TeamSim captures per operation (§3.1.2):
// violations found immediately after execution, constraint evaluations
// attributable to the operation, and whether it was a design spin.
//
// In ADPM mode the DCM re-derives only the connected regions of the
// constraint network the operation touched (DPM.evaluate), so
// Evaluations, Narrowed and Emptied are the tool runs spent on, and the
// subspaces reduced in, those regions. The violation lists are always
// those of the whole network. On a network that is a single region —
// every scenario of the paper — the regions touched are the network.
type Transition struct {
	// Stage is the history index n of the operation.
	Stage int
	// Op is the executed operation θ_n.
	Op Operation
	// ViolationsBefore lists constraints known violated before the
	// transition.
	ViolationsBefore []string
	// ViolationsAfter lists constraints known violated after the
	// transition.
	ViolationsAfter []string
	// NewViolations lists violations present after but not before.
	NewViolations []string
	// Evaluations counts constraint evaluations due to this operation:
	// synthesis and verification tool runs, the propagation of the
	// touched regions, and their movement-window refreshes.
	Evaluations int64
	// Narrowed lists properties of the touched regions whose feasible
	// subspace the re-derivation left below its initial range (ADPM
	// mode only).
	Narrowed []string
	// Emptied lists properties of the touched regions whose feasible
	// subspace the re-derivation left empty (ADPM mode only).
	Emptied []string
	// IsSpin marks expensive cross-subsystem iterations.
	IsSpin bool
}
