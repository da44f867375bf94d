package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
)

// Span names, outermost first. The benchmark records them from its own
// wrappers around the injection points the program exposes; stage
// clocks inside the server are a later change (ROADMAP item 1a).
const (
	spanRequest        = "loadgen.request"
	spanProxy          = "cluster.proxy"
	spanUpstream       = "cluster.upstream"
	spanServerHTTP     = "server.http"
	spanApply          = "dpm.apply"
	spanPropagate      = "constraint.propagate"
	spanWindowRefresh  = "dpm.window_refresh"
	spanWALWrite       = "wal.write"
	spanWALFsync       = "wal.fsync"
	spanShip           = "replica.ship"
	spanFollowerAppend = "replica.follower_append"
	spanFollowerFsync  = "replica.follower_fsync"
	spanSimRun         = "teamsim.run"
)

// span is one timed interval at a layer boundary. Times are
// nanoseconds since the recorder's epoch. Parent is an index into the
// resolved span list (-1 for a root); Ordinal is the request the span
// belongs to; Kind is set on roots only (create, ops, state, delete).
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Ordinal int    `json:"ordinal"`
	Kind    string `json:"kind,omitempty"`
}

// spanRec keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced run is built: the same
// stack with no wrappers installed.
type spanRec struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{epoch: time.Now()} }

// add records one finished span.
func (r *spanRec) add(name string, start, end time.Time) {
	r.addKind(name, "", start, end)
}

func (r *spanRec) addKind(name, kind string, start, end time.Time) {
	s := span{Name: name, Kind: kind, Parent: -1,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// addEngineEvents converts the engine's own trace events (the shard
// recorder the server already feeds) into spans. An event is emitted
// when its step ends and carries the step's duration, so the span is
// [emitted - duration, emitted]. Every recorder stamps events on a
// clock of its own that starts somewhere inside trace.New, so the offset
// between the two clocks is read off both now, not assumed from when New
// was called: allocating a 65536-event ring takes milliseconds, many
// times a small request.
func (r *spanRec) addEngineEvents(rec *trace.Recorder) {
	base := time.Since(r.epoch).Nanoseconds() - rec.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	var steps []span // the propagations and refreshes since the last operation
	for _, e := range rec.Events() {
		var name string
		switch e.Kind {
		case trace.KindOperation:
			name = spanApply
		case trace.KindPropagate:
			name = spanPropagate
		case trace.KindWindowRefresh:
			name = spanWindowRefresh
		default:
			continue
		}
		end := base + e.TNanos
		s := span{Name: name, Parent: -1, Start: end - e.DurNanos, End: end}
		if name != spanApply {
			steps = append(steps, s)
		} else {
			// The emitter reads an event's duration and the recorder
			// stamps it a moment later; when the goroutine stalls in
			// between, the operation's span slides past the start of the
			// steps it was emitted after and would nest under them. Its
			// steps are the ones that end inside it.
			for _, step := range steps {
				if step.End > s.Start && step.Start < s.Start {
					s.Start = step.Start
				}
			}
			steps = steps[:0]
		}
		r.spans = append(r.spans, s)
	}
}

// resolveSpans nests spans by time. The traced run is serial — one
// client, one request in flight — so every span that starts inside
// another belongs to it, and no request id is needed. Spans are sorted
// by start; a span's parent is the innermost span still open when it
// starts, and a child that outlives its parent (a response body still
// draining after the handler returned) is clipped to it. Roots are the
// spans named root; each span takes the ordinal of its root.
func resolveSpans(spans []span, root string) []span {
	out := append([]span(nil), spans...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].End != out[j].End {
			return out[i].End > out[j].End // the longer span is the parent
		}
		return spanDepth(out[i].Name) < spanDepth(out[j].Name)
	})
	var stack []int
	ordinal := -1
	for i := range out {
		s := &out[i]
		for len(stack) > 0 && out[stack[len(stack)-1]].End <= s.Start {
			stack = stack[:len(stack)-1]
		}
		s.Parent, s.Ordinal = -1, -1 // -1: work outside any request (set-up)
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			s.Parent, s.Ordinal = p, out[p].Ordinal
			if s.End > out[p].End {
				s.End = out[p].End
			}
		} else if s.Name == root {
			ordinal++
			s.Ordinal = ordinal
		}
		stack = append(stack, i)
	}
	return out
}

// spanDepth orders spans that start and end on the same nanosecond.
func spanDepth(name string) int {
	for i, n := range []string{spanRequest, spanSimRun, spanProxy, spanUpstream, spanServerHTTP,
		spanApply, spanShip, spanFollowerAppend} {
		if n == name {
			return i
		}
	}
	return 100
}

// selfTimes returns each resolved span's self time: its duration minus
// the part of it its direct children cover. Children may overlap one
// another (a follower fsync runs inside a ship that runs beside
// nothing else, but parallel fan-out would overlap), so the cover is
// the length of the union of the child intervals.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		// Children are already in start order (spans is sorted by start).
		var cover, curLo, curHi int64
		open := false
		for _, k := range kids[i] {
			lo, hi := spans[k].Start, spans[k].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi <= lo {
				continue
			}
			switch {
			case !open:
				curLo, curHi, open = lo, hi, true
			case lo <= curHi:
				if hi > curHi {
					curHi = hi
				}
			default:
				cover += curHi - curLo
				curLo, curHi = lo, hi
			}
		}
		if open {
			cover += curHi - curLo
		}
		self[i] = (s.End - s.Start) - cover
	}
	return self
}

// writeSpans writes resolved spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceSummary is what the per-layer metrics read off a resolved trace.
type traceSummary struct {
	Requests int
	// RootNanos is the summed duration of all root spans.
	RootNanos int64
	// SelfNanos and DurNanos sum self time and duration per span name;
	// Count is the number of spans per name.
	SelfNanos map[string]int64
	DurNanos  map[string]int64
	Count     map[string]int
	// OpsSelfNanos/OpsDurNanos/OpsRequests restrict the sums to requests
	// whose root kind is "ops" — what ops_p50_ms decomposes into.
	OpsSelfNanos map[string]int64
	OpsDurNanos  map[string]int64
	OpsRequests  int
}

// summarize folds a resolved trace into per-name totals.
func summarize(spans []span, root string) traceSummary {
	ts := traceSummary{
		SelfNanos: map[string]int64{}, DurNanos: map[string]int64{}, Count: map[string]int{},
		OpsSelfNanos: map[string]int64{}, OpsDurNanos: map[string]int64{},
	}
	self := selfTimes(spans)
	kindOf := map[int]string{}
	for _, s := range spans {
		if s.Name == root && s.Parent == -1 {
			kindOf[s.Ordinal] = s.Kind
			ts.Requests++
			ts.RootNanos += s.End - s.Start
			if s.Kind == "ops" {
				ts.OpsRequests++
			}
		}
	}
	for i, s := range spans {
		if s.Ordinal < 0 {
			continue // work outside any request (set-up)
		}
		d := s.End - s.Start
		ts.SelfNanos[s.Name] += self[i]
		ts.DurNanos[s.Name] += d
		ts.Count[s.Name]++
		if kindOf[s.Ordinal] == "ops" {
			ts.OpsSelfNanos[s.Name] += self[i]
			ts.OpsDurNanos[s.Name] += d
		}
	}
	return ts
}

// spanParents lists, for each span name, what it may sit directly
// under; "" stands for no parent (a root, or set-up work before the
// first request). Nesting is inferred from time alone, so a span on the
// wrong clock or from a second request in flight lands under the wrong
// parent; self times would still sum to the roots, because children
// are clipped to their parents, and every share would be wrong.
var spanParents = map[string][]string{
	spanRequest:    {""},
	spanSimRun:     {""},
	spanProxy:      {spanRequest},
	spanUpstream:   {spanProxy},
	spanServerHTTP: {spanRequest, spanUpstream},
	spanApply:      {spanServerHTTP, spanSimRun},
	// A create propagates and refreshes once, outside any operation; and
	// an operation's recorded start can slide past a whole step of its
	// own (addEngineEvents), which then sits beside it.
	spanPropagate:      {spanApply, spanServerHTTP, spanSimRun},
	spanWindowRefresh:  {spanApply, spanServerHTTP, spanSimRun},
	spanWALWrite:       {spanServerHTTP, ""},
	spanWALFsync:       {spanServerHTTP, ""},
	spanShip:           {spanServerHTTP, ""},
	spanFollowerAppend: {spanShip},
	spanFollowerFsync:  {spanFollowerAppend, ""},
}

// misnested counts the resolved spans that sit under a parent
// spanParents does not allow, as "child under parent" -> count.
func misnested(spans []span) map[string]int {
	bad := map[string]int{}
	for _, s := range spans {
		parent := ""
		if s.Parent >= 0 {
			parent = spans[s.Parent].Name
		}
		ok := false
		for _, p := range spanParents[s.Name] {
			ok = ok || p == parent
		}
		if !ok {
			if parent == "" {
				parent = "nothing"
			}
			bad[s.Name+" under "+parent]++
		}
	}
	return bad
}
