package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/internal/trace"
)

func TestSelfTimeOverlappingAndNestedChildren(t *testing.T) {
	// Parents given explicitly: two children of the root overlap, one has
	// a child of its own, one outlives the root.
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "a1", Start: 15, End: 25, Parent: 1},
		{Name: "b", Start: 30, End: 60, Parent: 0},   // overlaps a by 10
		{Name: "c", Start: 90, End: 130, Parent: 0},  // 30 beyond the root
		{Name: "d", Start: 200, End: 210, Parent: 0}, // wholly outside: covers nothing
	}
	got := selfTimes(spans)
	want := []int64{
		100 - (50 + 10), // union of [10,60] and the clipped [90,100]
		30 - 10,
		10,
		30,
		40,
		10,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestResolveSpansNestsClipsAndSums(t *testing.T) {
	in := []span{ // deliberately out of order
		{Name: spanFollowerFsync, Start: 55, End: 70},
		{Name: spanWALFsync, Start: 20, End: 30}, // before the first request: set-up
		{Name: spanRequest, Start: 40, End: 100, Kind: "ops"},
		{Name: spanServerHTTP, Start: 45, End: 95},
		{Name: spanFollowerAppend, Start: 52, End: 75},
		{Name: spanShip, Start: 50, End: 80},
		{Name: spanUpstream, Start: 120, End: 190}, // outlives the proxy span
		{Name: spanProxy, Start: 112, End: 178},
		{Name: spanRequest, Start: 110, End: 180, Kind: "state"},
	}
	out := resolveSpans(in, spanRequest)
	byName := func(name string, ordinal int) *span {
		for i := range out {
			if out[i].Name == name && out[i].Ordinal == ordinal {
				return &out[i]
			}
		}
		t.Fatalf("no span %s with ordinal %d in %+v", name, ordinal, out)
		return nil
	}
	if s := byName(spanWALFsync, -1); s.Parent != -1 {
		t.Errorf("set-up span got a parent: %+v", s)
	}
	fs := byName(spanFollowerFsync, 0)
	ship := out[out[fs.Parent].Parent]
	if out[fs.Parent].Name != spanFollowerAppend || ship.Name != spanShip || out[ship.Parent].Name != spanServerHTTP {
		t.Errorf("follower fsync not nested under append under ship under server.http: %+v", out)
	}
	if up := byName(spanUpstream, 1); up.End != 178 {
		t.Errorf("span outliving its parent not clipped to it: %+v", up)
	}
	ts := summarize(out, spanRequest)
	if ts.Requests != 2 || ts.OpsRequests != 1 || ts.RootNanos != 60+70 {
		t.Errorf("summary counts: %+v", ts)
	}
	if bad := misnested(out); len(bad) != 0 {
		t.Errorf("well-nested spans reported as misnested: %v", bad)
	}
	if got := ts.OpsSelfNanos[spanShip]; got != 30-23 {
		t.Errorf("ship self time on ops requests = %d, want 7", got)
	}
	if _, ok := ts.Count[spanWALFsync]; ok {
		t.Errorf("set-up span counted in a request: %+v", ts.Count)
	}
}

// TestMisnestedCatchesAWrongClock is the case the self-time sum cannot
// see: an engine span stamped on a clock a few milliseconds off lands
// outside its request, or inside the next one's transport time, and
// clipping still makes every self time sum to its root.
func TestMisnestedCatchesAWrongClock(t *testing.T) {
	const skew = 300 // the request below lasts 250
	in := []span{
		{Name: spanRequest, Start: 1000, End: 1250, Kind: "ops"},
		{Name: spanServerHTTP, Start: 1050, End: 1200},
		{Name: spanApply, Start: 1100 - skew, End: 1150 - skew}, // before the request
		{Name: spanRequest, Start: 2000, End: 2250, Kind: "ops"},
		{Name: spanServerHTTP, Start: 2050, End: 2200},
		{Name: spanApply, Start: 2210, End: 2240}, // after the handler returned
		{Name: spanPropagate, Start: 2215, End: 2230},
	}
	bad := misnested(resolveSpans(in, spanRequest))
	if bad[spanApply+" under nothing"] != 1 || bad[spanApply+" under "+spanRequest] != 1 || len(bad) != 2 {
		t.Errorf("misnested = %v, want one apply under nothing and one under the request", bad)
	}
}

// TestEngineEventsKeepTheirOperationAroundThem: an operation event
// stamped late (its duration was read before a stall, its time after)
// must still contain the propagation and refresh emitted before it, and
// must not swallow the steps of the create before it.
func TestEngineEventsKeepTheirOperationAroundThem(t *testing.T) {
	tr := trace.New(trace.Options{})
	defer tr.Close()
	for _, e := range []trace.Event{
		{Kind: trace.KindPropagate, TNanos: 20, DurNanos: 15},      // the create's: [5,20]
		{Kind: trace.KindWindowRefresh, TNanos: 40, DurNanos: 20},  // [20,40]
		{Kind: trace.KindPropagate, TNanos: 100, DurNanos: 30},     // [70,100]
		{Kind: trace.KindWindowRefresh, TNanos: 200, DurNanos: 90}, // [110,200]
		{Kind: trace.KindOperation, TNanos: 210, DurNanos: 120},    // reads [90,210]; was [<=70,210]
	} {
		tr.Emit(e)
	}
	rec := newSpanRec()
	rec.addEngineEvents(tr)
	if len(rec.spans) != 5 {
		t.Fatalf("%d spans from 5 events", len(rec.spans))
	}
	op, firstStep, createStep := rec.spans[4], rec.spans[2], rec.spans[1]
	if op.Name != spanApply || op.Start != firstStep.Start || op.End-op.Start != 140 {
		t.Errorf("operation span %+v does not start with its first step %+v", op, firstStep)
	}
	if op.Start <= createStep.End {
		t.Errorf("operation span %+v swallowed the create's step %+v", op, createStep)
	}
	out := resolveSpans(rec.spans, spanRequest)
	nested := 0
	for _, s := range out {
		if s.Parent >= 0 && out[s.Parent].Name == spanApply {
			nested++
		}
	}
	if nested != 2 {
		t.Errorf("%d steps nested under the operation, want its propagation and its refresh: %+v", nested, out)
	}
}

// TestTracedRunNestsEngineSpans runs the serial traced run of
// serve-small for real, in this process, and checks where the engine's
// spans land: every operation the client had acknowledged is one
// dpm.apply span directly under the server.http span of an ops request.
func TestTracedRunNestsEngineSpans(t *testing.T) {
	w, _ := workloadByName("serve-small")
	res, err := runSerial(w, t.TempDir(), 1, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if bad := misnested(res.spans); len(bad) != 0 {
		t.Errorf("misnested spans: %v", bad)
	}
	applies := 0
	for _, s := range res.spans {
		if s.Name != spanApply {
			continue
		}
		applies++
		if s.Parent < 0 || res.spans[s.Parent].Name != spanServerHTTP {
			t.Fatalf("dpm.apply span not under server.http: %+v", s)
		}
		root := res.spans[s.Parent]
		for root.Parent >= 0 {
			root = res.spans[root.Parent]
		}
		if root.Name != spanRequest || root.Kind != "ops" || root.Ordinal != s.Ordinal {
			t.Fatalf("dpm.apply span %+v belongs to root %+v, want an ops request", s, root)
		}
	}
	if applies == 0 || applies != res.ops {
		t.Errorf("%d dpm.apply spans for %d acknowledged operations", applies, res.ops)
	}
}

// fillWindow returns n samples of value v spread over window w of the run.
func fillWindow(w, n int, v float64) []timed {
	out := make([]timed, n)
	for i := range out {
		out[i] = timed{at: time.Duration(w)*windowLen + time.Duration(i)*time.Millisecond, lat: v}
	}
	return out
}

func TestWindowQuantileRule(t *testing.T) {
	run := 3 * windowLen
	full := append(append(fillWindow(0, 1000, 1), fillWindow(1, 1000, 2)...), fillWindow(2, 3000, 10)...)
	if v, n := windowQuantile(full, run, 0.5); v != 2 || n != 5000 {
		t.Errorf("full windows: got %v (n=%d), want the median of the window medians 2 (n=5000)", v, n)
	}
	thin := append(append(fillWindow(0, 999, 1), fillWindow(1, 1000, 2)...), fillWindow(2, 3000, 10)...)
	if v, n := windowQuantile(thin, run, 0.5); v != 10 || n != 4999 {
		t.Errorf("a window below %d samples: got %v (n=%d), want the whole-run median 10", minWindowSamples, v, n)
	}
	if v, n := windowQuantile(nil, run, 0.5); v != 0 || n != 0 {
		t.Errorf("no samples: got %v, %d", v, n)
	}
	// A sample completing after the nominal end lands in the last window.
	late := append(fillWindow(0, 1000, 1), timed{at: run + time.Second, lat: 5})
	if _, n := windowQuantile(late, windowLen, 0.5); n != 1001 {
		t.Errorf("late sample dropped: n=%d", n)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.99, 4.96}, {1, 5}} {
		if got := quantile(vs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestMedianRateLeavesOutAStall(t *testing.T) {
	// 200 ops/s for 10s, except second 4, in which the box stalled.
	var counts []timed
	for ms := 0; ms < 10000; ms += 5 {
		if ms/1000 == 4 {
			continue
		}
		counts = append(counts, timed{at: time.Duration(ms) * time.Millisecond, lat: 1})
	}
	if got := medianRate(counts, 10*time.Second); got != 200 {
		t.Errorf("median rate = %v, want 200 (the total rate is %v)", got, float64(len(counts))/10)
	}
	// 20 ops/s is too sparse for 1s slices; the slices grow to a window.
	counts = counts[:0]
	for ms := 0; ms < 15000; ms += 50 {
		counts = append(counts, timed{at: time.Duration(ms) * time.Millisecond, lat: 1})
	}
	if got := medianRate(counts, 15*time.Second); got != 20 {
		t.Errorf("sparse median rate = %v, want 20", got)
	}
}

func TestPyQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) in Python 3.
	q1, q2, q3 := pyQuartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("ten values: got %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = pyQuartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("two values: got %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

// stallTarget answers every request at once, except that its n-th
// request blocks for stall — a server that hiccups.
type stallTarget struct {
	n     int64
	stall time.Duration
	calls atomic.Int64
}

func (s *stallTarget) Do(method, path string, body []byte) (*loadgen.Response, error) {
	if s.calls.Add(1) == s.n {
		time.Sleep(s.stall)
	}
	switch {
	case method == http.MethodPost && path == "/sessions":
		b, _ := json.Marshal(server.CreateResponse{ID: fmt.Sprintf("s%d", s.calls.Load()), Scenario: "x", MaxOps: 100})
		return &loadgen.Response{Status: http.StatusCreated, Body: b, Header: http.Header{}}, nil
	default:
		return &loadgen.Response{Status: http.StatusOK, Body: []byte("{}"), Header: http.Header{}}, nil
	}
}

// TestOpenLoopTimesFromDueTime is the coordinated-omission test: when
// the target stalls, the requests that were due during the stall must
// be charged the wait, although each was answered at once when it
// finally went out.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const cycle = 8 * time.Millisecond
	const stall = 60 * time.Millisecond
	prog := loadgen.Program{Scenario: "x", Mode: "ADPM", MaxOps: 100}
	prog.Steps = append(prog.Steps, loadgen.Step{Kind: loadgen.StepCreate})
	for i := 0; i < 1000; i++ {
		prog.Steps = append(prog.Steps, loadgen.Step{Kind: loadgen.StepOps, Key: fmt.Sprint(i)})
	}
	target := &stallTarget{n: 10, stall: stall}
	log := &clientLog{t0: time.Now()}
	cl := &client{target: target, log: log}
	start := time.Now()
	end := start.Add(25 * cycle)
	cl.runWatch([]loadgen.Program{prog}, cycle, start, func() bool { return !time.Now().Before(end) },
		func(*sessionRec) *subscriber { return nil })

	// The stall covers 60ms/2ms = 30 slots; every one of them is late.
	waited, sendTimed := 0, 0
	for _, s := range log.samples {
		if s.lat >= stall/4 {
			waited++
		}
		if s.lat-s.late >= stall/4 { // what a clock started at the send would show
			sendTimed++
		}
	}
	if waited < 10 {
		t.Errorf("%d requests were charged a wait of %v or more; the stall delayed about 30", waited, stall/4)
	}
	if sendTimed != 1 {
		t.Errorf("timed from the send, %d requests look slow; only the stalled one should", sendTimed)
	}
	if len(log.samples) < 90 {
		t.Errorf("the schedule skipped slots: %d requests in 25 cycles of 4", len(log.samples))
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONAgrees checks that the driver's declaration and the
// program declare the same benchmark, within the driver's limits.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes; the limit is 64KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json has a key the contract does not know: %q", k)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics declared, %d in the program", len(bj.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range bj.EndToEnd {
		name(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Errorf("no setup_s metric in seconds, lower is better")
	}
	if len(bj.PerLayer) != len(perLayer) || len(bj.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d in the program", len(bj.PerLayer), len(perLayer))
	}
	layers := map[string]bool{}
	for i, m := range bj.PerLayer {
		name(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %s: unit %q", m.Name, m.Unit)
		}
		layer, _, ok := strings.Cut(m.Name, ".")
		if !ok {
			t.Errorf("per-layer metric %s does not name its layer", m.Name)
		}
		layers[layer] = true
	}
	for _, l := range []string{"interval", "expr", "constraint", "dpm", "teamsim", "server", "wal", "replica", "cluster", "notify", "loadgen", "trace"} {
		if !layers[l] {
			t.Errorf("no per-layer metric for layer %s", l)
		}
	}
}

// TestOracleJudgesServedState drives a real in-memory server through
// one program and checks that the oracle accepts what it served and
// rejects a tampered state — the correctness gate is not vacuous.
func TestOracleJudgesServedState(t *testing.T) {
	w, _ := workloadByName("serve-small")
	progs, spec, err := buildPrograms(w, 7, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{})
	defer srv.Drain()
	log := &clientLog{t0: time.Now()}
	cl := &client{target: &loadgen.HandlerTarget{Handler: srv.Handler()}, log: log}
	cl.runClosed(progs[0], func() bool { return len(log.sessions) >= 5 })
	if len(log.sessions) < 5 {
		t.Fatalf("ran %d sessions", len(log.sessions))
	}
	for _, s := range log.samples {
		if !s.ok {
			t.Fatalf("request failed: %+v", s)
		}
	}
	bad, checked, err := checkSessions(spec, log.sessions)
	if err != nil || len(bad) != 0 || checked != len(log.sessions) {
		t.Fatalf("oracle on an honest run: bad=%v checked=%d err=%v", bad, checked, err)
	}
	victim := log.sessions[2]
	victim.final = []byte(strings.Replace(string(victim.final), `"operations":`, `"operations":1`, 1))
	log.sessions[3].acked = log.sessions[3].acked[:len(log.sessions[3].acked)-1] // an acknowledged batch the replay misses
	bad, _, err = checkSessions(spec, log.sessions)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 2 || bad[victim] == "" || bad[log.sessions[3]] == "" {
		t.Errorf("oracle missed a tampered session: %v", bad)
	}
}

// TestSameSeedSamePrograms pins the determinism contract: a seed gives
// byte-identical request bodies, and serve-durable plays serve-small's.
func TestSameSeedSamePrograms(t *testing.T) {
	for _, name := range []string{"serve-small", "serve-large", "serve-watch"} {
		w, _ := workloadByName(name)
		a, _, err := buildPrograms(w, 3, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		b, _, _ := buildPrograms(w, 3, 2, false)
		c, _, _ := buildPrograms(w, 4, 2, false)
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		jc, _ := json.Marshal(c)
		if string(ja) != string(jb) {
			t.Errorf("%s: one seed gave two program sets", name)
		}
		if string(ja) == string(jc) {
			t.Errorf("%s: two seeds gave one program set", name)
		}
	}
	small, _ := workloadByName("serve-small")
	durable, _ := workloadByName("serve-durable")
	a, _, _ := buildPrograms(small, 5, 2, false)
	b, _, _ := buildPrograms(durable, 5, 2, false)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Errorf("serve-durable does not play serve-small's programs")
	}
}

// TestSmokeAllWorkloads drives all five workloads end to end in short
// mode — child processes, oracle, probes, traced runs — and checks that
// exactly the declared metrics come out. Bounds are not asserted: 1s
// runs mean nothing. Skipped by go test -short.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds adpmd and adpmproxy and runs five workloads")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	cfg := &config{root: root, out: out, tmp: filepath.Join(out, "tmp"), seed: 1, seconds: shortSeconds, short: true}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if cfg.bins, _, err = buildBinaries(root, filepath.Join(out, "bin")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killAll)
	set, err := runSet(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != len(workloads) {
		t.Fatalf("%d workloads ran", len(set))
	}
	for _, r := range set {
		if r.E2E.Failed != 0 || r.E2E.Attempted == 0 || r.TraceFailed != 0 || r.TraceAttempted == 0 {
			t.Errorf("%s: end to end %d/%d failed, traced %d/%d failed; notes %v %v", r.Workload,
				r.E2E.Failed, r.E2E.Attempted, r.TraceFailed, r.TraceAttempted, r.E2E.Notes, r.TraceNotes)
		}
		w, _ := workloadByName(r.Workload)
		checkEmitted(t, w, endToEnd, r.E2E.Metrics, true)
		checkEmitted(t, w, perLayer, r.PerLayer, false)
		if _, err := os.Stat(filepath.Join(out, "trace-"+r.Workload+".jsonl")); err != nil {
			t.Errorf("%s: %v", r.Workload, err)
		}
		durable := r.PerLayer["wal.fsyncs_per_op"].Value + r.PerLayer["replica.ships_per_op"].Value + r.PerLayer["trace.durable_share"].Value
		if (r.Workload == "serve-durable") != (durable > 0) {
			t.Errorf("%s: wal/replica/cluster work reads %v", r.Workload, durable)
		}
	}
	live.Lock()
	n := len(live.systems)
	live.Unlock()
	if n != 0 {
		t.Errorf("%d systems still running after the set", n)
	}
	if left, _ := os.ReadDir(cfg.tmp); len(left) != 0 {
		t.Errorf("temp data left behind: %v", left)
	}
}

// checkEmitted fails when the workload did not emit exactly the metrics
// declared for it, or an end-to-end metric reads zero.
func checkEmitted(t *testing.T, w *workload, defs []metricDef, got metricSet, nonZero bool) {
	t.Helper()
	declared := map[string]bool{}
	for _, d := range defs {
		if !d.on(w) {
			continue
		}
		declared[d.Name] = true
		v, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: declared metric %s not emitted", w.Name, d.Name)
			continue
		}
		if v.Unit != d.Unit {
			t.Errorf("%s: %s emitted in %q, declared in %q", w.Name, d.Name, v.Unit, d.Unit)
		}
		if nonZero && v.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s reads %v", w.Name, d.Name, v.Value)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: %s reads %v", w.Name, d.Name, v.Value)
		}
	}
	for name := range got {
		if !declared[name] {
			t.Errorf("%s: metric %s emitted but not declared for this workload", w.Name, name)
		}
	}
}

// TestJudgeSets feeds the repeat verdict canned sets.
func TestJudgeSets(t *testing.T) {
	mk := func(opsPerS, slo, evals float64, failed int) []workloadResult {
		return []workloadResult{{
			Workload: "serve-small",
			E2E: &e2eResult{Failed: failed, Metrics: metricSet{
				"ops_per_s":   {Value: opsPerS, Unit: "1/s"},
				"slo_ok_frac": {Value: slo, Unit: "frac"},
				"setup_s":     {Value: opsPerS / 1e5, Unit: "s"},
			}},
			PerLayer: metricSet{
				"wal.fsyncs_per_op": {Value: evals, Unit: "count"},
				"server.self_us":    {Value: opsPerS / 30, Unit: "us"},
			},
		}}
	}
	verdict := func(sets ...[]workloadResult) (bool, map[string]string) {
		rows, agree := judgeSets(sets)
		why := map[string]string{}
		for _, r := range rows {
			if !r.OK {
				why[r.Metric] = r.Why
			}
		}
		return agree, why
	}
	if agree, why := verdict(mk(3800, 1, 1, 0), mk(3400, 0.995, 1, 0)); !agree {
		t.Errorf("two sets 11%% apart with equal counts disagree: %v", why)
	}
	if agree, why := verdict(mk(3800, 1, 1, 0), mk(2000, 1, 1, 0)); agree || why["ops_per_s"] == "" {
		t.Errorf("ops_per_s 62%% apart passed: %v", why)
	} else if why["setup_s"] != "" || why["server.self_us"] != "" {
		t.Errorf("setup_s and per-layer timings carry no spread verdict: %v", why)
	}
	// The SLO floor holds for every set, not only the first.
	if agree, why := verdict(mk(3800, 1, 1, 0), mk(3800, 0.9895, 1, 0)); agree || why["slo_ok_frac"] == "" {
		t.Errorf("a later set below the SLO floor passed: %v", why)
	}
	if agree, why := verdict(mk(3800, 1, 1, 0), mk(3800, 1, 1.5, 0)); agree || why["wal.fsyncs_per_op"] == "" {
		t.Errorf("a count that differs between sets passed: %v", why)
	}
	if agree, why := verdict(mk(3800, 1, 1, 0), mk(3800, 1, 1, 3)); agree || why["fail_frac"] == "" {
		t.Errorf("a set with failed requests passed: %v", why)
	}
	// Four sets and more use the quartile distance, which forgives one outlier.
	if agree, why := verdict(mk(3800, 1, 1, 0), mk(3790, 1, 1, 0), mk(3810, 1, 1, 0), mk(3805, 1, 1, 0), mk(2000, 1, 1, 0)); !agree {
		t.Errorf("one outlier among five sets disagrees: %v", why)
	}
}
