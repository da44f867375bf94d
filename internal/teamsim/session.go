package teamsim

import (
	"errors"

	"repro/internal/constraint"
	"repro/internal/dddl"
	"repro/internal/dpm"
	"repro/internal/notify"
	"repro/internal/trace"
)

// ErrOpBudget is returned by Session.Apply when the session's operation
// budget is exhausted. The operation was not applied: the budget is
// checked before the next-state function δ runs, so a session can never
// execute more than MaxOps operations — a post-hoc cap would leave the
// network narrowed by operations the Result does not count.
var ErrOpBudget = errors.New("teamsim: operation budget exhausted")

// Session bundles one live design session: the DPM owning the design
// state, the notification bus with one subscription per problem owner,
// and the accumulating Result, with the operation budget enforced
// before every apply.
//
// Both the concurrent engine's DPM-server goroutine (RunConcurrent)
// and internal/server's shard loops execute operations exclusively
// through Session.Apply, so the budget-check-before-δ invariant lives
// in exactly one place and cannot regress in only one host.
//
// A Session is not safe for concurrent use; hosts serialize access
// (the concurrent engine on its server goroutine, internal/server on
// the owning shard's event loop).
type Session struct {
	// D is the design process manager holding network, hierarchy, and
	// history.
	D *dpm.DPM
	// Bus is the Notification Manager bus; Apply publishes transition
	// diff events through it.
	Bus *notify.Bus
	// Res accumulates the run statistics across applies.
	Res *Result
	// MaxOps is the resolved operation budget (always > 0).
	MaxOps int
	// OnEvents, when non-nil, receives each applied transition's
	// notification events right after they are published on Bus. Hosts
	// use it to feed live subscriber fan-out (internal/server's SSE hub)
	// without the engine knowing about transports; because Apply is
	// deterministic, a replayed history invokes the hook with exactly
	// the events of the original run.
	OnEvents func(events []notify.Event)
}

// NewSession builds a standalone session from a scenario: a DPM (with
// initial propagation in ADPM mode), a bus with the NM relevance filter
// of every problem owner, and a zero Result. It builds a Template and
// takes the template's own DPM, so a one-off session pays no fork. maxOps
// <= 0 selects DefaultMaxOps — the same resolution Config.maxOps applies
// for the simulation engines.
func NewSession(scn *dddl.Scenario, mode dpm.Mode, maxOps int, opts constraint.PropagateOptions) (*Session, error) {
	t, err := NewTemplate(scn, mode, opts)
	if err != nil {
		return nil, err
	}
	return t.session(t.d, maxOps), nil
}

// SetTracer attaches a trace recorder to the session's DPM and bus;
// nil detaches both.
func (s *Session) SetTracer(rec *trace.Recorder) {
	s.D.SetTracer(rec)
	s.Bus.SetTracer(rec)
}

// Apply executes one design operation against the session. The budget
// check happens before δ executes: the operation that would exceed
// MaxOps is rejected with ErrOpBudget, not applied. On success the
// transition is folded into Res and its diff events are published on
// the bus (deliveries counted in Res.Notifications).
func (s *Session) Apply(op dpm.Operation) (*dpm.Transition, error) {
	if s.Res.Operations >= s.MaxOps {
		return nil, ErrOpBudget
	}
	tr, err := s.D.Apply(op)
	if err != nil {
		return nil, err
	}
	recordTransition(s.Res, tr)
	events := publishTransition(s.Bus, s.Res, tr)
	if s.OnEvents != nil && len(events) > 0 {
		s.OnEvents(events)
	}
	return tr, nil
}

// Remaining returns the unused operation budget.
func (s *Session) Remaining() int {
	if r := s.MaxOps - s.Res.Operations; r > 0 {
		return r
	}
	return 0
}

// Exhausted reports whether the operation budget is used up.
func (s *Session) Exhausted() bool { return s.Res.Operations >= s.MaxOps }

// Finish finalizes and returns the session's Result (termination flag,
// final property values, process handle). Idempotent.
func (s *Session) Finish() *Result {
	finishResult(s.Res, s.D)
	return s.Res
}
