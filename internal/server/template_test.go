package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/constraint"
	"repro/internal/dddl"
	"repro/internal/dpm"
	"repro/internal/notify"
	"repro/internal/scenario"
	"repro/internal/teamsim"
	"repro/internal/trace"
)

// recordedBatches runs the deterministic engine on scn and returns its
// operation history cut into batches of size per.
func recordedBatches(t *testing.T, scn *dddl.Scenario, mode dpm.Mode, seed int64, maxOps, per int) [][]dpm.Operation {
	t.Helper()
	res, err := teamsim.Run(teamsim.Config{Scenario: scn, Mode: mode, Seed: seed, MaxOps: maxOps})
	if err != nil {
		t.Fatalf("recording %s history: %v", scn.Name, err)
	}
	var batches [][]dpm.Operation
	for _, tr := range res.Process.History() {
		if n := len(batches); n == 0 || len(batches[n-1]) == per {
			batches = append(batches, nil)
		}
		batches[len(batches)-1] = append(batches[len(batches)-1], tr.Op)
	}
	if len(batches) == 0 {
		t.Fatalf("%s %v: empty history", scn.Name, mode)
	}
	return batches
}

// freshSession is the uncached reference build: a session built from
// the scenario directly, whose notification log is kept the way the
// server keeps its own.
type freshSession struct {
	sess   *teamsim.Session
	events []notify.SeqEvent
}

func newFreshSession(t *testing.T, scn *dddl.Scenario, mode dpm.Mode, rec *trace.Recorder) *freshSession {
	t.Helper()
	sess, err := teamsim.NewSession(scn, mode, 0, constraint.PropagateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := &freshSession{sess: sess}
	sess.OnEvents = func(evs []notify.Event) {
		for _, e := range evs {
			f.events = append(f.events, notify.SeqEvent{ID: len(f.events) + 1, Event: e})
		}
	}
	sess.SetTracer(rec)
	return f
}

func (f *freshSession) apply(t *testing.T, ops []dpm.Operation) {
	t.Helper()
	for i, op := range ops {
		if _, err := f.sess.Apply(op); err != nil {
			t.Fatalf("fresh build: op %d: %v", i, err)
		}
	}
}

// stateOf renders a session's state exactly as GET /state would.
func stateOf(t *testing.T, id, scenarioName string, sess *teamsim.Session) []byte {
	t.Helper()
	b, err := marshalState(SnapshotSession(id, scenarioName, sess))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// len returns the number of cached template entries.
func (c *templateCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// stateBytes is Server.StateBytes failing the test on error.
func stateBytes(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	b, err := s.StateBytes(id)
	if err != nil {
		t.Fatalf("state %s: %v", id, err)
	}
	return b
}

// evalCount reads a hosted session's network evaluation counter on its
// shard loop.
func evalCount(t *testing.T, s *Server, id string) int64 {
	t.Helper()
	sh, err := s.shardFor(id)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	var lerr error
	if err := sh.submit(func() {
		var hs *hostedSession
		if hs, lerr = sh.lookup(id); lerr == nil {
			n = hs.sess.D.Net.EvalCount()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if lerr != nil {
		t.Fatal(lerr)
	}
	return n
}

// opEvents returns the recorder's events from index from on, without the
// fields that vary run to run (sequence, timestamps, durations) and
// without run-start events.
func opEvents(rec *trace.Recorder, from int) []trace.Event {
	var out []trace.Event
	for _, e := range rec.Events()[from:] {
		if e.Kind == trace.KindRunStart {
			continue
		}
		e.Seq, e.TNanos, e.DurNanos = 0, 0, 0
		out = append(out, e)
	}
	return out
}

// reconcile checks a trace prefix the way tracecheck does, closed by a
// run-end carrying the session's current totals.
func reconcile(t *testing.T, events []trace.Event, state []byte) {
	t.Helper()
	var st StateResponse
	if err := json.Unmarshal(state, &st); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	last := events[len(events)-1]
	for _, e := range append(events, trace.Event{
		Seq: last.Seq + 1, TNanos: last.TNanos, Kind: trace.KindRunEnd,
		Operations: st.Operations, Evaluations: st.Evaluations,
		Spins: st.Spins, Notifications: st.Notifications,
	}) {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(b, '\n'))
	}
	if _, err := trace.ValidateJSONL(&buf); err != nil {
		t.Fatalf("trace does not reconcile: %v", err)
	}
}

// TestTemplateStampMatchesFreshBuild pins the template contract: a
// session stamped from the server's template cache is byte-identical to
// one built from the scenario directly — initially and after every
// batch of a replayed history — in state bytes, evaluation count,
// notification log ids and per-op trace events, and its trace
// reconciles after every batch. The template's own initial propagation
// emits nothing into the stream.
func TestTemplateStampMatchesFreshBuild(t *testing.T) {
	both := []dpm.Mode{dpm.ADPM, dpm.Conventional}
	adpm := []dpm.Mode{dpm.ADPM}
	cases := []struct {
		name, source string
		modes        []dpm.Mode
	}{
		{name: "sensor", modes: both},
		{name: "receiver", modes: both},
		{name: "simplified", modes: both},
		{name: "sparse:200", modes: adpm},
		{name: "hub:200", modes: adpm},
		{name: "grid:100", modes: adpm},
		{source: scenario.Receiver().Format(), modes: both},
	}
	for _, tc := range cases {
		for _, mode := range tc.modes {
			label := tc.name
			if label == "" {
				label = "source"
			}
			t.Run(fmt.Sprintf("%s/%v", label, mode), func(t *testing.T) {
				var scn *dddl.Scenario
				var err error
				if tc.source != "" {
					scn, err = dddl.ParseString(tc.source)
				} else {
					scn, err = scenario.ByName(tc.name)
				}
				if err != nil {
					t.Fatal(err)
				}
				batches := recordedBatches(t, scn, mode, 3, 36, 3)

				rec := trace.New(trace.Options{})
				s := newTestServer(t, Options{Shards: 1, ShardRecorder: func(int) *trace.Recorder { return rec }})
				c, err := s.CreateSession(CreateSpec{Name: tc.name, Source: tc.source, Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				if evs := rec.Events(); len(evs) != 1 || evs[0].Kind != trace.KindRunStart {
					t.Fatalf("create emitted %v, want exactly one run-start", evs)
				}
				freshRec := trace.New(trace.Options{})
				fresh := newFreshSession(t, scn, mode, freshRec)

				stampSeen, freshSeen := 0, 0
				check := func(step string) {
					t.Helper()
					got := stateBytes(t, s, c.ID)
					if want := stateOf(t, c.ID, scn.Name, fresh.sess); !bytes.Equal(got, want) {
						t.Fatalf("%s: state differs\nstamp: %s\nfresh: %s", step, got, want)
					}
					if got, want := evalCount(t, s, c.ID), fresh.sess.D.Net.EvalCount(); got != want {
						t.Fatalf("%s: EvalCount %d, fresh build %d", step, got, want)
					}
					if got := eventLog(t, s, c.ID); fmt.Sprint(got) != fmt.Sprint(fresh.events) {
						t.Fatalf("%s: notification log differs\nstamp: %v\nfresh: %v", step, got, fresh.events)
					}
					gotEv, wantEv := opEvents(rec, stampSeen), opEvents(freshRec, freshSeen)
					if fmt.Sprintf("%+v", gotEv) != fmt.Sprintf("%+v", wantEv) {
						t.Fatalf("%s: trace events differ\nstamp: %+v\nfresh: %+v", step, gotEv, wantEv)
					}
					stampSeen, freshSeen = len(rec.Events()), len(freshRec.Events())
					reconcile(t, rec.Events(), got)
				}
				check("initial")
				for i, batch := range batches {
					if _, err := s.Apply(c.ID, batch); err != nil {
						t.Fatalf("batch %d: %v", i, err)
					}
					fresh.apply(t, batch)
					check(fmt.Sprintf("batch %d", i))
				}
			})
		}
	}
}

// TestTemplateStampIsolation stamps one template from many goroutines at
// once — server creates landing on four shards and direct stamps — and
// drives each stamp with a different history. Under -race this checks
// that stamping only reads the template; afterwards the template (seen
// through a new stamp) and a stamp taken before and never touched are
// still byte-identical to a fresh build, and every driven session
// matches a fresh replay of its own history.
func TestTemplateStampIsolation(t *testing.T) {
	const name = "receiver"
	scn := scenario.Receiver()
	s := newTestServer(t, Options{Shards: 4})
	tmpl, err := s.templates.byName(name, dpm.ADPM)
	if err != nil {
		t.Fatal(err)
	}
	untouched := tmpl.NewSession(0)
	want := stateOf(t, "x", name, newFreshSession(t, scn, dpm.ADPM, nil).sess)

	histories := make([][][]dpm.Operation, 4)
	for i := range histories {
		histories[i] = recordedBatches(t, scn, dpm.ADPM, int64(i+1), 12, 2)
	}
	replay := func(batches [][]dpm.Operation) []byte {
		f := newFreshSession(t, scn, dpm.ADPM, nil)
		for _, b := range batches {
			f.apply(t, b)
		}
		return stateOf(t, "x", name, f.sess)
	}
	wantFinal := make([][]byte, len(histories))
	for i, h := range histories {
		wantFinal[i] = replay(h)
	}

	const workers = 8
	ids := make([]string, workers)
	direct := make([]*teamsim.Session, workers)
	var wg sync.WaitGroup
	errs := make(chan error, 2*workers)
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			c, err := s.CreateSession(CreateSpec{Name: name, Mode: dpm.ADPM})
			if err != nil {
				errs <- err
				return
			}
			ids[w] = c.ID
			for _, b := range histories[w%len(histories)] {
				if _, err := s.Apply(c.ID, b); err != nil {
					errs <- err
					return
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			sess := tmpl.NewSession(0)
			for _, b := range histories[(w+1)%len(histories)] {
				for _, op := range b {
					if _, err := sess.Apply(op); err != nil {
						errs <- err
						return
					}
				}
			}
			direct[w] = sess
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := stateOf(t, "x", name, untouched); !bytes.Equal(got, want) {
		t.Errorf("untouched stamp changed under concurrent stamping:\n got %s\nwant %s", got, want)
	}
	if got := stateOf(t, "x", name, tmpl.NewSession(0)); !bytes.Equal(got, want) {
		t.Errorf("template changed under concurrent stamping:\n got %s\nwant %s", got, want)
	}
	for w := 0; w < workers; w++ {
		st, err := s.State(ids[w])
		if err != nil {
			t.Fatal(err)
		}
		st.ID = "x"
		got, err := marshalState(st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantFinal[w%len(histories)]) {
			t.Errorf("server session %d diverged from a fresh replay of its history", w)
		}
		if got := stateOf(t, "x", name, direct[w]); !bytes.Equal(got, wantFinal[(w+1)%len(histories)]) {
			t.Errorf("direct stamp %d diverged from a fresh replay of its history", w)
		}
	}
}

// sourceN is a small valid DDDL scenario, distinct for each n.
func sourceN(n int) string {
	return fmt.Sprintf(`scenario t%d
object O owner d {
    property x real [0, %d]
}
constraint c1: x >= 1
problem P owner d {
    outputs { x }
    constraints { c1 }
}
`, n, n+10)
}

// stateSansID renders a session's state with its id blanked, so two
// sessions' states compare byte for byte.
func stateSansID(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	st, err := s.State(id)
	if err != nil {
		t.Fatalf("state %s: %v", id, err)
	}
	st.ID = ""
	b, err := marshalState(st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTemplateCacheBound: templateCap+1 distinct sources leave at most
// templateCap templates cached, the least recently used one is the one
// dropped, and its key rebuilds to the identical session. A failed build
// is not cached.
func TestTemplateCacheBound(t *testing.T) {
	s := newTestServer(t, Options{Shards: 2})
	first := ""
	for n := 0; n <= templateCap; n++ {
		c, err := s.CreateSession(CreateSpec{Source: sourceN(n), Mode: dpm.ADPM})
		if err != nil {
			t.Fatalf("source %d: %v", n, err)
		}
		if n == 0 {
			first = c.ID
		}
	}
	if got := s.templates.len(); got > templateCap {
		t.Fatalf("%d templates cached after %d distinct sources, cap %d", got, templateCap+1, templateCap)
	}
	key := templateKey{src: sha256.Sum256([]byte(sourceN(0))), mode: dpm.ADPM}
	s.templates.mu.Lock()
	_, cached := s.templates.entries[key]
	s.templates.mu.Unlock()
	if cached {
		t.Fatal("least recently used template was not the one evicted")
	}
	again, err := s.CreateSession(CreateSpec{Source: sourceN(0), Mode: dpm.ADPM})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := stateSansID(t, s, first), stateSansID(t, s, again.ID); !bytes.Equal(a, b) {
		t.Errorf("rebuilt template stamps a different session:\n%s\n%s", a, b)
	}
	if got := s.templates.len(); got > templateCap {
		t.Fatalf("%d templates cached after rebuild, cap %d", got, templateCap)
	}

	n := s.templates.len()
	if _, err := s.CreateSession(CreateSpec{Source: "problem {{{", Mode: dpm.ADPM}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bad source: err %v, want ErrInvalid", err)
	}
	if _, err := s.CreateSession(CreateSpec{Name: "nope", Mode: dpm.ADPM}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("unknown name: err %v, want ErrInvalid", err)
	}
	if got := s.templates.len(); got != n {
		t.Errorf("failed builds changed the cache: %d entries, was %d", got, n)
	}
}

// TestTemplateBuildOnceAndPanic: concurrent callers of one key share a
// single build; a build that panics is not cached, its waiters get an
// error, and the next caller builds again.
func TestTemplateBuildOnceAndPanic(t *testing.T) {
	c := newTemplateCache()
	key := templateKey{name: "simplified", mode: dpm.ADPM}
	var builds atomic.Int32
	release := make(chan struct{})
	parse := func() (*dddl.Scenario, error) {
		builds.Add(1)
		<-release
		return scenario.Simplified(), nil
	}
	var wg sync.WaitGroup
	got := make([]*teamsim.Template, 6)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tmpl, err := c.get(key, parse)
			if err != nil {
				t.Error(err)
			}
			got[i] = tmpl
		}(i)
	}
	for c.len() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds for one key, want 1", n)
	}
	for i := range got {
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("caller %d got template %p, caller 0 got %p", i, got[i], got[0])
		}
	}

	boom := templateKey{name: "boom", mode: dpm.ADPM}
	entered := make(chan struct{})
	waited := make(chan error, 1)
	go func() {
		<-entered
		_, err := c.get(boom, func() (*dddl.Scenario, error) { return nil, errors.New("second build") })
		waited <- err
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panicking build did not panic its caller")
			}
		}()
		_, _ = c.get(boom, func() (*dddl.Scenario, error) {
			close(entered)
			time.Sleep(50 * time.Millisecond) // let the waiter find the in-flight entry
			panic("template build failure")
		})
	}()
	err := <-waited
	if err == nil || (!errors.Is(err, errTemplatePanic) && err.Error() != "second build") {
		t.Errorf("waiter on a panicked build got %v", err)
	}
	c.mu.Lock()
	_, cached := c.entries[boom]
	c.mu.Unlock()
	if cached {
		t.Error("panicked build was cached")
	}
}

// TestTemplateDurablePaths: park → restore and crash → Open both stamp
// from the server's template cache (recovery builds the templates once,
// a restore rebuilds nothing), and the restored sessions carry exactly
// the bytes a fresh build replaying their history reaches.
func TestTemplateDurablePaths(t *testing.T) {
	var clock atomic.Int64
	opts := Options{
		Shards:      2,
		DataDir:     t.TempDir(),
		IdleTimeout: time.Minute,
		SweepEvery:  time.Hour,
		nowFn:       func() time.Time { return time.Unix(0, clock.Load()) },
	}
	s := newDurableServer(t, opts)

	src := scenario.Simplified().Format()
	srcScn, err := dddl.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	type durableCase struct {
		spec    CreateSpec
		scn     *dddl.Scenario
		key     templateKey
		batches [][]dpm.Operation
		id      string
		want    []byte
	}
	cases := []*durableCase{
		{spec: CreateSpec{Name: "receiver", Mode: dpm.ADPM}, scn: scenario.Receiver(),
			key: templateKey{name: "receiver", mode: dpm.ADPM}},
		{spec: CreateSpec{Source: src, Mode: dpm.Conventional}, scn: srcScn,
			key: templateKey{src: sha256.Sum256([]byte(src)), mode: dpm.Conventional}},
	}
	for _, dc := range cases {
		dc.batches = recordedBatches(t, dc.scn, dc.spec.Mode, 2, 20, 4)
		c, err := s.CreateSession(dc.spec)
		if err != nil {
			t.Fatal(err)
		}
		dc.id = c.ID
		fresh := newFreshSession(t, dc.scn, dc.spec.Mode, nil)
		for i, b := range dc.batches {
			applyKeyed(t, s, dc.id, fmt.Sprint("k", i), b)
			fresh.apply(t, b)
		}
		dc.want = stateOf(t, dc.id, dc.scn.Name, fresh.sess)
		if got := stateBytes(t, s, dc.id); !bytes.Equal(got, dc.want) {
			t.Fatalf("%s: live state differs from a fresh replay", dc.id)
		}
	}
	entry := func(s *Server, k templateKey) *templateEntry {
		s.templates.mu.Lock()
		defer s.templates.mu.Unlock()
		return s.templates.entries[k]
	}
	before := map[templateKey]*templateEntry{}
	for _, dc := range cases {
		if before[dc.key] = entry(s, dc.key); before[dc.key] == nil {
			t.Fatalf("%s: create did not go through the template cache", dc.id)
		}
	}

	clock.Add(int64(2 * time.Minute))
	if n := s.Sweep(); n != len(cases) {
		t.Fatalf("sweep parked %d sessions, want %d", n, len(cases))
	}
	for _, dc := range cases {
		if got := stateBytes(t, s, dc.id); !bytes.Equal(got, dc.want) {
			t.Errorf("%s: park → restore changed the state\n got %s\nwant %s", dc.id, got, dc.want)
		}
		if entry(s, dc.key) != before[dc.key] {
			t.Errorf("%s: restore rebuilt the template instead of stamping the cached one", dc.id)
		}
	}

	s.Kill()
	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Drain() })
	if got := s2.templates.len(); got != len(cases) {
		t.Fatalf("recovery built %d templates, want %d", got, len(cases))
	}
	recovered := map[templateKey]*templateEntry{}
	for _, dc := range cases {
		recovered[dc.key] = entry(s2, dc.key)
	}
	for _, dc := range cases {
		if got := stateBytes(t, s2, dc.id); !bytes.Equal(got, dc.want) {
			t.Errorf("%s: crash → Open changed the state\n got %s\nwant %s", dc.id, got, dc.want)
		}
		if entry(s2, dc.key) != recovered[dc.key] {
			t.Errorf("%s: restore after recovery rebuilt the template", dc.id)
		}
	}
	if st, err := s2.State(cases[0].id); err != nil || st.Scenario != cases[0].scn.Name {
		t.Errorf("recovered session label %v (err %v), want %q", st, err, cases[0].scn.Name)
	}
}
