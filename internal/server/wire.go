package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/internal/domain"
	"repro/internal/dpm"
	"repro/internal/teamsim"
)

// CreateRequest is the POST /sessions body: either a built-in scenario
// name or raw DDDL source, the transition mode, and an optional
// per-session operation budget (capped at the server ceiling).
type CreateRequest struct {
	Scenario string `json:"scenario,omitempty"`
	Source   string `json:"source,omitempty"`
	Mode     string `json:"mode,omitempty"`
	MaxOps   int    `json:"max_ops,omitempty"`
	// ID is an externally-minted session id ("c..." namespace; see
	// CreateSpec.ID). The cluster router mints these so session ids stay
	// unique — and deterministically placeable — across pairs.
	ID string `json:"id,omitempty"`
}

// CreateResponse acknowledges a created session.
type CreateResponse struct {
	ID         string   `json:"id"`
	Scenario   string   `json:"scenario"`
	Mode       string   `json:"mode"`
	MaxOps     int      `json:"max_ops"`
	Shard      int      `json:"shard"`
	Stage      int      `json:"stage"`
	Violations []string `json:"violations,omitempty"`
}

// OpsRequest is the POST /sessions/{id}/ops body: one atomic batch,
// optionally tagged with a client idempotency key (equivalently sent as
// the Idempotency-Key header). Retrying a keyed batch — after a 429, a
// dropped response, or a server crash — returns the original
// acknowledgement instead of applying twice.
//
// Key semantics at the edges, each deterministic:
//   - an empty key is unkeyed: the batch applies on every send;
//   - the same key with a byte-different batch body (wire-canonical
//     form) is rejected with 422 — the key stays bound to its first
//     body, and nothing is applied;
//   - keys are scoped per session: reusing a key on another session
//     applies independently there.
type OpsRequest struct {
	Ops []WireOp `json:"ops"`
	Key string   `json:"key,omitempty"`
}

// WireOp is one design operation on the wire.
type WireOp struct {
	Kind        string           `json:"kind"`
	Problem     string           `json:"problem"`
	Designer    string           `json:"designer,omitempty"`
	Assignments []WireAssignment `json:"assignments,omitempty"`
	Verify      []string         `json:"verify,omitempty"`
	MotivatedBy []string         `json:"motivated_by,omitempty"`
}

// WireAssignment binds a property to a JSON number or string.
type WireAssignment struct {
	Prop  string          `json:"prop"`
	Value json.RawMessage `json:"value"`
}

// decodeValue accepts a JSON number or string; anything else (null,
// bool, object, array) is rejected. JSON cannot encode NaN or Inf, so
// decoded numeric values are always finite.
func (a WireAssignment) decodeValue() (domain.Value, error) {
	var f float64
	if err := json.Unmarshal(a.Value, &f); err == nil {
		return domain.Real(f), nil
	}
	var s string
	if err := json.Unmarshal(a.Value, &s); err == nil {
		return domain.Str(s), nil
	}
	return domain.Value{}, fmt.Errorf("%w: assignment to %q: value must be a JSON number or string, got %s",
		ErrInvalid, a.Prop, a.Value)
}

// toOperation converts a wire op to an engine operation.
func (o WireOp) toOperation() (dpm.Operation, error) {
	op := dpm.Operation{
		Problem:     o.Problem,
		Designer:    o.Designer,
		Verify:      o.Verify,
		MotivatedBy: o.MotivatedBy,
	}
	switch o.Kind {
	case "synthesis":
		op.Kind = dpm.OpSynthesis
	case "verification":
		op.Kind = dpm.OpVerification
	case "decomposition":
		op.Kind = dpm.OpDecomposition
	default:
		return op, fmt.Errorf("%w: unknown op kind %q", ErrInvalid, o.Kind)
	}
	for _, a := range o.Assignments {
		v, err := a.decodeValue()
		if err != nil {
			return op, err
		}
		op.Assignments = append(op.Assignments, dpm.Assignment{Prop: a.Prop, Value: v})
	}
	return op, nil
}

// WireFromOperation renders an engine operation as a wire op — the
// inverse of toOperation, used by the server-replay differential test
// to push recorded histories through the full HTTP stack.
func WireFromOperation(op dpm.Operation) WireOp {
	w := WireOp{
		Kind:        op.Kind.String(),
		Problem:     op.Problem,
		Designer:    op.Designer,
		Verify:      op.Verify,
		MotivatedBy: op.MotivatedBy,
	}
	for _, a := range op.Assignments {
		var raw []byte
		if a.Value.IsString() {
			raw, _ = json.Marshal(a.Value.Text())
		} else {
			raw, _ = json.Marshal(a.Value.Num())
		}
		w.Assignments = append(w.Assignments, WireAssignment{Prop: a.Prop, Value: raw})
	}
	return w
}

// TransitionState is one applied operation's delta on the wire.
//
// In ADPM mode Evaluations, Narrowed and Emptied describe the regions of
// the constraint network the operation touched and the DPM therefore
// re-derived (see dpm.Transition): narrowed lists the properties of
// those regions whose feasible subspace ends below its declared range,
// not every narrowed property of the session — GET /state has those. On
// a network that is one connected region (the paper's scenarios) the
// two coincide.
type TransitionState struct {
	Stage         int      `json:"stage"`
	Kind          string   `json:"kind"`
	Problem       string   `json:"problem"`
	Designer      string   `json:"designer,omitempty"`
	Evaluations   int64    `json:"evaluations"`
	NewViolations []string `json:"new_violations,omitempty"`
	Narrowed      []string `json:"narrowed,omitempty"`
	Emptied       []string `json:"emptied,omitempty"`
	Spin          bool     `json:"spin,omitempty"`
}

func transitionState(tr *dpm.Transition) TransitionState {
	return TransitionState{
		Stage:         tr.Stage,
		Kind:          tr.Op.Kind.String(),
		Problem:       tr.Op.Problem,
		Designer:      tr.Op.Designer,
		Evaluations:   tr.Evaluations,
		NewViolations: tr.NewViolations,
		Narrowed:      tr.Narrowed,
		Emptied:       tr.Emptied,
		Spin:          tr.IsSpin,
	}
}

// ApplyResponse acknowledges one atomic op batch.
type ApplyResponse struct {
	ID          string            `json:"id"`
	Applied     int               `json:"applied"`
	Stage       int               `json:"stage"`
	Remaining   int               `json:"remaining"`
	Done        bool              `json:"done"`
	Violations  []string          `json:"violations,omitempty"`
	Transitions []TransitionState `json:"transitions"`
}

// WindowState serializes a feasible subspace. Interval bounds are
// rendered with strconv.FormatFloat('g', -1) so they round-trip exactly
// and infinities survive JSON.
type WindowState struct {
	Empty   bool      `json:"empty,omitempty"`
	Lo      string    `json:"lo,omitempty"`
	Hi      string    `json:"hi,omitempty"`
	Reals   []float64 `json:"reals,omitempty"`
	Strings []string  `json:"strings,omitempty"`
}

func windowState(dm domain.Domain) WindowState {
	if dm.IsEmpty() {
		return WindowState{Empty: true}
	}
	if iv, ok := dm.Interval(); ok {
		return WindowState{Lo: formatBound(iv.Lo), Hi: formatBound(iv.Hi)}
	}
	if dm.Kind() == domain.DiscreteString {
		return WindowState{Strings: dm.Strings()}
	}
	return WindowState{Reals: dm.Reals()}
}

func formatBound(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// PropertyState is one property's snapshot: binding and feasible
// subspace (the movement window for bound ADPM design variables).
type PropertyState struct {
	Name     string      `json:"name"`
	Owner    string      `json:"owner,omitempty"`
	Numeric  bool        `json:"numeric"`
	Bound    bool        `json:"bound"`
	Value    interface{} `json:"value,omitempty"`
	Feasible WindowState `json:"feasible"`
}

// ProblemState is one problem's snapshot.
type ProblemState struct {
	Name     string   `json:"name"`
	Owner    string   `json:"owner,omitempty"`
	Status   string   `json:"status"`
	Children []string `json:"children,omitempty"`
}

// StateResponse is the GET /sessions/{id}/state body: the full design
// state plus the session's running metrics. Its JSON encoding is
// deterministic for a given state (insertion-ordered properties and
// problems), which the fuzzers exploit: a rejected batch must leave the
// serialized state byte-identical.
type StateResponse struct {
	ID            string          `json:"id"`
	Scenario      string          `json:"scenario"`
	Mode          string          `json:"mode"`
	Stage         int             `json:"stage"`
	Done          bool            `json:"done"`
	Remaining     int             `json:"remaining"`
	Operations    int             `json:"operations"`
	Evaluations   int64           `json:"evaluations"`
	Spins         int             `json:"spins"`
	Notifications int             `json:"notifications"`
	Violations    []string        `json:"violations,omitempty"`
	Problems      []ProblemState  `json:"problems"`
	Properties    []PropertyState `json:"properties"`
}

// SnapshotSession renders the StateResponse GET /state would return
// for a session hosted outside the server: the oracle side of the
// load-generator cross-check (internal/loadgen) replays every acked
// batch into a fresh single-threaded teamsim.Session and compares this
// snapshot byte-for-byte against the served state.
func SnapshotSession(id, scenarioName string, sess *teamsim.Session) *StateResponse {
	return buildState(&hostedSession{id: id, scenario: scenarioName, sess: sess})
}

// buildState snapshots a hosted session. Shard-loop goroutine only.
func buildState(hs *hostedSession) *StateResponse {
	d := hs.sess.D
	res := hs.sess.Res
	st := &StateResponse{
		ID:            hs.id,
		Scenario:      hs.scenario,
		Mode:          d.Mode.String(),
		Stage:         d.Stage(),
		Done:          d.Done(),
		Remaining:     hs.sess.Remaining(),
		Operations:    res.Operations,
		Evaluations:   res.Evaluations,
		Spins:         res.Spins,
		Notifications: res.Notifications,
		Violations:    d.Net.Violations(),
	}
	for _, p := range d.Problems() {
		st.Problems = append(st.Problems, ProblemState{
			Name:     p.Name,
			Owner:    p.Owner,
			Status:   p.Status().String(),
			Children: p.Children,
		})
	}
	for _, p := range d.Net.Properties() {
		ps := PropertyState{
			Name:     p.Name,
			Owner:    p.Owner,
			Numeric:  p.IsNumeric(),
			Bound:    p.IsBound(),
			Feasible: windowState(p.Feasible()),
		}
		if v, ok := p.Value(); ok {
			switch {
			case v.IsString():
				ps.Value = v.Text()
			case math.IsInf(v.Num(), 0) || math.IsNaN(v.Num()):
				// encoding/json cannot represent these as numbers.
				ps.Value = formatBound(v.Num())
			default:
				ps.Value = v.Num()
			}
		}
		st.Properties = append(st.Properties, ps)
	}
	return st
}
