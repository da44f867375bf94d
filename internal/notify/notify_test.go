package notify

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestBusPublishDrain(t *testing.T) {
	b := NewBus()
	b.Subscribe("alice", nil)
	b.Subscribe("bob", func(e Event) bool { return e.Constraint == "Split" })

	if got := b.Subscribers(); len(got) != 2 || got[0] != "alice" {
		t.Fatalf("Subscribers = %v", got)
	}

	n := b.Publish(Event{Kind: ViolationDetected, Constraint: "Split"})
	if n != 2 {
		t.Errorf("deliveries = %d, want 2", n)
	}
	n = b.Publish(Event{Kind: ViolationDetected, Constraint: "Other"})
	if n != 1 {
		t.Errorf("deliveries = %d, want 1 (bob filtered)", n)
	}
	if b.Pending("alice") != 2 || b.Pending("bob") != 1 {
		t.Errorf("pending: alice=%d bob=%d", b.Pending("alice"), b.Pending("bob"))
	}
	evs := b.Drain("alice")
	if len(evs) != 2 {
		t.Fatalf("alice drained %d", len(evs))
	}
	if b.Pending("alice") != 0 {
		t.Error("drain did not clear queue")
	}
	if got := b.Drain("alice"); got != nil {
		t.Errorf("second drain = %v", got)
	}
	// Unknown subscriber: empty drain, zero pending.
	if b.Drain("carol") != nil || b.Pending("carol") != 0 {
		t.Error("unknown subscriber misbehaves")
	}
}

func TestResubscribeClearsQueue(t *testing.T) {
	b := NewBus()
	b.Subscribe("a", nil)
	b.Publish(Event{Kind: ViolationDetected, Constraint: "c"})
	b.Subscribe("a", nil)
	if b.Pending("a") != 0 {
		t.Error("resubscribe kept stale events")
	}
	if len(b.Subscribers()) != 1 {
		t.Error("resubscribe duplicated id")
	}
}

func TestPropertyFilter(t *testing.T) {
	f := PropertyFilter(
		map[string]bool{"Pa": true},
		map[string]bool{"Split": true},
	)
	cases := []struct {
		e    Event
		want bool
	}{
		{Event{Kind: ViolationDetected, Constraint: "Split"}, true},
		{Event{Kind: ViolationDetected, Constraint: "Other"}, false},
		{Event{Kind: ViolationResolved, Constraint: "Split"}, true},
		{Event{Kind: SubspaceReduced, Property: "Pa"}, true},
		{Event{Kind: SubspaceReduced, Property: "Pb"}, false},
		{Event{Kind: SubspaceEmptied, Property: "Pa"}, true},
		{Event{Kind: ProblemStatusChanged, Problem: "X"}, true},
	}
	for i, c := range cases {
		if got := f(c.e); got != c.want {
			t.Errorf("case %d (%v): %v, want %v", i, c.e, got, c.want)
		}
	}
}

func TestDiffEvents(t *testing.T) {
	evs := DiffEvents(7,
		[]string{"A", "B"}, // before
		[]string{"B", "C"}, // after: A resolved, C detected
		[]string{"p", "q"}, // narrowed
		[]string{"q"},      // q also emptied
	)
	kinds := map[EventKind]int{}
	for _, e := range evs {
		kinds[e.Kind]++
		if e.Stage != 7 {
			t.Errorf("stage = %d", e.Stage)
		}
	}
	if kinds[ViolationDetected] != 1 || kinds[ViolationResolved] != 1 {
		t.Errorf("violation events = %v", kinds)
	}
	if kinds[SubspaceEmptied] != 1 {
		t.Errorf("emptied events = %d", kinds[SubspaceEmptied])
	}
	// q is emptied, so only p gets a plain reduced event.
	if kinds[SubspaceReduced] != 1 {
		t.Errorf("reduced events = %d", kinds[SubspaceReduced])
	}
	for _, e := range evs {
		if e.Kind == SubspaceReduced && e.Property != "p" {
			t.Errorf("reduced property = %s", e.Property)
		}
	}
}

func TestDiffEventsEmpty(t *testing.T) {
	if evs := DiffEvents(0, nil, nil, nil, nil); len(evs) != 0 {
		t.Errorf("no-change diff produced %v", evs)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Kind: ViolationDetected, Stage: 3, Constraint: "Split", Detail: "margin 12"}
	s := e.String()
	for _, part := range []string{"stage 3", "violation-detected", "Split", "margin 12"} {
		if !strings.Contains(s, part) {
			t.Errorf("event string %q missing %q", s, part)
		}
	}
	p := Event{Kind: SubspaceReduced, Stage: 1, Property: "Pa"}
	if !strings.Contains(p.String(), "Pa") {
		t.Errorf("property event string %q", p.String())
	}
	pr := Event{Kind: ProblemStatusChanged, Stage: 1, Problem: "Top"}
	if !strings.Contains(pr.String(), "Top") {
		t.Errorf("problem event string %q", pr.String())
	}
}

func TestKindStrings(t *testing.T) {
	names := map[EventKind]string{
		ViolationDetected:    "violation-detected",
		ViolationResolved:    "violation-resolved",
		SubspaceReduced:      "subspace-reduced",
		SubspaceEmptied:      "subspace-emptied",
		ProblemStatusChanged: "problem-status-changed",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if !strings.Contains(EventKind(42).String(), "42") {
		t.Error("unknown kind should embed number")
	}
}

// TestPublishOrdering pins the bus's ordering contract: each subscriber
// drains events in exact publish order, regardless of how many other
// subscribers interleave.
func TestPublishOrdering(t *testing.T) {
	b := NewBus()
	b.Subscribe("a", nil)
	b.Subscribe("b", nil)
	published := []Event{
		{Kind: ViolationDetected, Stage: 1, Constraint: "C1"},
		{Kind: SubspaceReduced, Stage: 1, Property: "P1"},
		{Kind: ViolationResolved, Stage: 2, Constraint: "C1"},
		{Kind: SubspaceEmptied, Stage: 3, Property: "P2"},
	}
	for _, e := range published {
		b.Publish(e)
	}
	for _, id := range []string{"a", "b"} {
		got := b.Drain(id)
		if len(got) != len(published) {
			t.Fatalf("%s drained %d events, want %d", id, len(got), len(published))
		}
		for i := range got {
			if got[i] != published[i] {
				t.Errorf("%s event %d = %+v, want %+v", id, i, got[i], published[i])
			}
		}
	}
}

// TestNoDuplicateDelivery checks that one publish delivers at most one
// copy per subscriber: the filter is consulted once per subscriber, not
// once per matching criterion.
func TestNoDuplicateDelivery(t *testing.T) {
	b := NewBus()
	calls := 0
	b.Subscribe("a", func(e Event) bool { calls++; return true })
	e := Event{Kind: ViolationDetected, Constraint: "Split", Property: "Pa"}
	if n := b.Publish(e); n != 1 {
		t.Errorf("deliveries = %d, want 1", n)
	}
	if calls != 1 {
		t.Errorf("filter consulted %d times for one publish, want 1", calls)
	}
	if got := b.Drain("a"); len(got) != 1 {
		t.Errorf("queued %d copies, want 1", len(got))
	}
}

// TestBusTraceDeliveries checks the notify instrumentation: one trace
// event per publish, with Deliveries matching the bus's return value.
func TestBusTraceDeliveries(t *testing.T) {
	rec := trace.New(trace.Options{})
	b := NewBus()
	b.SetTracer(rec)
	b.Subscribe("a", nil)
	b.Subscribe("b", func(e Event) bool { return e.Constraint == "Split" })
	b.Publish(Event{Kind: ViolationDetected, Stage: 2, Constraint: "Split"}) // 2 deliveries
	b.Publish(Event{Kind: SubspaceReduced, Stage: 2, Property: "Pa"})        // 1 delivery
	c := rec.Counters()
	if c.NotifyEvents != 2 {
		t.Errorf("NotifyEvents = %d, want 2", c.NotifyEvents)
	}
	if c.Deliveries != 3 {
		t.Errorf("Deliveries = %d, want 3", c.Deliveries)
	}
	evs := rec.Events()
	if len(evs) != 2 || evs[0].Name != "Split" || evs[1].Name != "Pa" {
		t.Errorf("trace events = %+v", evs)
	}
	if evs[0].Event != "violation-detected" || evs[0].Deliveries != 2 {
		t.Errorf("first notify trace event = %+v", evs[0])
	}
}
