// Package notify implements the Notification Manager of paper §2.2: it
// turns design transitions into constraint-related events — violations
// appearing and resolving, feasible-subspace reductions, problem status
// changes — and delivers to each designer the subset relevant to them,
// "alerting designers of key information that might otherwise go
// unnoticed".
package notify

import (
	"fmt"

	"repro/internal/trace"
)

// EventKind classifies notification events.
type EventKind int

// Event kinds.
const (
	// ViolationDetected fires when a constraint becomes Violated.
	ViolationDetected EventKind = iota
	// ViolationResolved fires when a previously violated constraint is
	// no longer violated.
	ViolationResolved
	// SubspaceReduced fires when a property's feasible subspace shrank.
	SubspaceReduced
	// SubspaceEmptied fires when a property's feasible subspace became
	// empty (every value found infeasible).
	SubspaceEmptied
	// ProblemStatusChanged fires when a problem's status changed.
	ProblemStatusChanged
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case ViolationDetected:
		return "violation-detected"
	case ViolationResolved:
		return "violation-resolved"
	case SubspaceReduced:
		return "subspace-reduced"
	case SubspaceEmptied:
		return "subspace-emptied"
	case ProblemStatusChanged:
		return "problem-status-changed"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one notification.
type Event struct {
	Kind EventKind
	// Stage is the history index of the transition that produced it.
	Stage int
	// Constraint names the constraint for violation events.
	Constraint string
	// Property names the property for subspace events.
	Property string
	// Problem names the problem for status events.
	Problem string
	// Detail carries a human-readable elaboration.
	Detail string
}

// String formats the event for logs.
func (e Event) String() string {
	subject := e.Constraint
	if subject == "" {
		subject = e.Property
	}
	if subject == "" {
		subject = e.Problem
	}
	if e.Detail != "" {
		return fmt.Sprintf("[stage %d] %s %s: %s", e.Stage, e.Kind, subject, e.Detail)
	}
	return fmt.Sprintf("[stage %d] %s %s", e.Stage, e.Kind, subject)
}

// Filter decides whether an event is relevant to a subscriber.
type Filter func(Event) bool

// Bus is a synchronous notification bus with per-subscriber queues.
// The deterministic simulation engine publishes after each transition
// and designers drain their queue when choosing the next operation; the
// concurrent engine forwards drained batches over channels.
type Bus struct {
	subs  map[string]Filter
	queue map[string][]Event
	order []string
	// tracer, when non-nil, receives one notify event per publish.
	tracer *trace.Recorder
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{subs: map[string]Filter{}, queue: map[string][]Event{}}
}

// Subscribe registers a subscriber with a relevance filter. A nil
// filter receives everything. Re-subscribing replaces the filter and
// clears any queued events.
func (b *Bus) Subscribe(id string, f Filter) {
	if _, ok := b.subs[id]; !ok {
		b.order = append(b.order, id)
	}
	b.subs[id] = f
	b.queue[id] = nil
}

// Subscribers returns subscriber ids in subscription order.
func (b *Bus) Subscribers() []string {
	return append([]string(nil), b.order...)
}

// Filter returns the subscriber's relevance filter and whether the id
// is subscribed. The live fan-out layer uses it to attach an external
// subscriber (an SSE stream) with the same owner/relevance selection as
// the simulated designer it follows.
func (b *Bus) Filter(id string) (Filter, bool) {
	f, ok := b.subs[id]
	return f, ok
}

// SetTracer attaches a trace recorder to the bus; nil detaches.
func (b *Bus) SetTracer(tr *trace.Recorder) { b.tracer = tr }

// subject returns the event's subject name for trace records.
func (e Event) subject() string {
	switch {
	case e.Constraint != "":
		return e.Constraint
	case e.Property != "":
		return e.Property
	default:
		return e.Problem
	}
}

// Publish enqueues the event for every subscriber whose filter accepts
// it and returns the number of deliveries.
func (b *Bus) Publish(e Event) int {
	n := 0
	for _, id := range b.order {
		f := b.subs[id]
		if f == nil || f(e) {
			b.queue[id] = append(b.queue[id], e)
			n++
		}
	}
	if b.tracer.Enabled() {
		b.tracer.Emit(trace.Event{
			Kind:       trace.KindNotify,
			Stage:      e.Stage,
			Event:      e.Kind.String(),
			Name:       e.subject(),
			Deliveries: n,
		})
	}
	return n
}

// Drain returns and clears the subscriber's queued events.
func (b *Bus) Drain(id string) []Event {
	evs := b.queue[id]
	b.queue[id] = nil
	return evs
}

// Pending returns the number of undelivered events for a subscriber.
func (b *Bus) Pending(id string) int { return len(b.queue[id]) }

// PropertyFilter returns a filter accepting events about any of the
// given properties or constraints — the NM's relevance selection for a
// designer concerned with a property set.
func PropertyFilter(props map[string]bool, constraints map[string]bool) Filter {
	return func(e Event) bool {
		switch e.Kind {
		case ViolationDetected, ViolationResolved:
			return constraints[e.Constraint]
		case SubspaceReduced, SubspaceEmptied:
			return props[e.Property]
		default:
			return true
		}
	}
}

// DiffEvents derives notification events from the before/after state of
// one transition: newly violated constraints, resolved ones, and
// narrowed or emptied feasible subspaces.
func DiffEvents(stage int, beforeViolated, afterViolated []string, narrowed, emptied []string) []Event {
	var out []Event
	before := map[string]bool{}
	for _, v := range beforeViolated {
		before[v] = true
	}
	after := map[string]bool{}
	for _, v := range afterViolated {
		after[v] = true
	}
	for _, v := range afterViolated {
		if !before[v] {
			out = append(out, Event{Kind: ViolationDetected, Stage: stage, Constraint: v})
		}
	}
	for _, v := range beforeViolated {
		if !after[v] {
			out = append(out, Event{Kind: ViolationResolved, Stage: stage, Constraint: v})
		}
	}
	emptiedSet := map[string]bool{}
	for _, p := range emptied {
		emptiedSet[p] = true
		out = append(out, Event{Kind: SubspaceEmptied, Stage: stage, Property: p})
	}
	for _, p := range narrowed {
		if !emptiedSet[p] {
			out = append(out, Event{Kind: SubspaceReduced, Stage: stage, Property: p})
		}
	}
	return out
}
