// Package dpm implements the design process manager of paper §2.1–2.2:
// the state-based model in which a design process moves through states
// s_n by applying design operations θ_n, with the next-state function δ
// updating the problem hierarchy and — in ADPM mode — generating and
// propagating constraints after every operation (Fig. 1).
package dpm

import (
	"fmt"
)

// ProblemStatus is a design problem's level of accomplishment.
type ProblemStatus int

// Problem statuses.
const (
	// Open problems are available for their owner to work on.
	Open ProblemStatus = iota
	// Waiting problems are blocked on subproblems (the paper's f_p
	// skips problems with a Waiting status, §3.1.1).
	Waiting
	// Solved problems have all outputs bound and all constraints in T_i
	// known satisfied.
	Solved
)

// String names the status.
func (s ProblemStatus) String() string {
	switch s {
	case Open:
		return "Open"
	case Waiting:
		return "Waiting"
	case Solved:
		return "Solved"
	}
	return fmt.Sprintf("ProblemStatus(%d)", int(s))
}

// Problem is a design problem p_i = (I_i, O_i, T_i) (paper §2.1): input
// properties, output properties, and the constraint set T_i relating a
// subset of the problem's properties.
type Problem struct {
	// Name uniquely identifies the problem.
	Name string
	// Owner is the designer responsible for solving it.
	Owner string
	// Inputs are property names the problem consumes.
	Inputs []string
	// Outputs are property names a solution must bind.
	Outputs []string
	// Constraints are the names of the constraints in T_i.
	Constraints []string
	// Parent is the problem this one was decomposed from ("" for root).
	Parent string
	// Children are the subproblems of a decomposed problem.
	Children []string

	status ProblemStatus
	// everSolved records that the problem reached Solved at some stage;
	// later modifications to it are rework (late design iterations).
	everSolved bool
}

// Status returns the problem's current status.
func (p *Problem) Status() ProblemStatus { return p.status }

// SetStatus overrides the status (the DPM recomputes it each
// transition; tests and decomposition operators use this directly).
func (p *Problem) SetStatus(s ProblemStatus) {
	p.status = s
	if s == Solved {
		p.everSolved = true
	}
}

// IsLeaf reports whether the problem has no subproblems.
func (p *Problem) IsLeaf() bool { return len(p.Children) == 0 }

// clone returns a copy of the problem with its own status. The
// declaration lists (inputs, outputs, constraints, children) are shared:
// they are fixed once the DPM is built.
func (p *Problem) clone() *Problem {
	cp := *p
	return &cp
}

// String formats the problem.
func (p *Problem) String() string {
	return fmt.Sprintf("%s[%s] owner=%s outputs=%v", p.Name, p.status, p.Owner, p.Outputs)
}
