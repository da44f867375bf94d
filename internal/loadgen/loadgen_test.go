package loadgen

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/trace"
)

func testWorkload() Workload {
	return Workload{
		Scenario:          "simplified",
		Mode:              "ADPM",
		Seed:              7,
		Clients:           4,
		SessionsPerClient: 2,
		BatchSize:         5,
		StateEvery:        2,
		RetryFrac:         0.3,
		DeleteFrac:        0.25,
		HistoryPool:       3,
		OpsPerSession:     24,
	}
}

// runHermetic executes one full closed-loop fixed-work pass of the
// workload against a fresh in-process server.
func runHermetic(t *testing.T, w Workload, clients int, rec *trace.Recorder) *RunResult {
	t.Helper()
	progs, err := BuildPrograms(w)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.Open(server.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	r := &Runner{
		Target:   &HandlerTarget{Handler: srv.Handler()},
		Programs: progs,
		Seed:     w.Seed,
		Tracer:   rec,
	}
	res, err := r.Run([]Phase{{Name: "steady", Clients: clients}})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBuildProgramsDeterministic(t *testing.T) {
	w := testWorkload()
	a, err := BuildPrograms(w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPrograms(w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("BuildPrograms is not deterministic for identical workloads")
	}
	if len(a) != w.Clients*w.SessionsPerClient {
		t.Fatalf("got %d programs, want %d", len(a), w.Clients*w.SessionsPerClient)
	}
	retries := 0
	for _, p := range a {
		if p.Steps[0].Kind != StepCreate {
			t.Fatalf("program does not start with create")
		}
		if last := p.Steps[len(p.Steps)-1]; last.Kind != StepState && last.Kind != StepDelete {
			t.Fatalf("program ends with %v, want state or delete", last.Kind)
		}
		for _, s := range p.Steps {
			if s.Retry {
				retries++
				if s.Key == "" {
					t.Fatal("injected retry without idempotency key")
				}
			}
		}
	}
	if retries == 0 {
		t.Fatal("RetryFrac 0.3 injected no retries")
	}
	// A different seed must change the program set.
	w2 := w
	w2.Seed = 8
	c, err := BuildPrograms(w2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical programs")
	}
}

// finalStates keys each session's served final state by (client,
// ordinal) with the server-assigned id normalized away, so two runs
// are comparable even though shard placement differs.
func finalStates(t *testing.T, res *RunResult) map[[2]int]string {
	t.Helper()
	out := map[[2]int]string{}
	for _, st := range res.Sessions {
		if st.CreateFailed {
			t.Fatalf("session create failed for client %d ordinal %d", st.Program.Client, st.Program.Ordinal)
		}
		var state server.StateResponse
		if err := json.Unmarshal(st.FinalState, &state); err != nil {
			t.Fatalf("final state does not parse: %v", err)
		}
		state.ID = ""
		b, err := json.Marshal(&state)
		if err != nil {
			t.Fatal(err)
		}
		out[[2]int{st.Program.Client, st.Program.Ordinal}] = string(b)
	}
	return out
}

// TestHermeticDeterminism is the tentpole acceptance check: two
// in-process same-seed runs issue identical request sequences and
// reach identical oracle-checked final session states.
func TestHermeticDeterminism(t *testing.T) {
	w := testWorkload()
	res1 := runHermetic(t, w, 4, nil)
	res2 := runHermetic(t, w, 4, nil)

	for _, res := range []*RunResult{res1, res2} {
		oracle, err := CheckOracle(res)
		if err != nil {
			t.Fatal(err)
		}
		if !oracle.OK() {
			t.Fatalf("oracle mismatches: %v", oracle.Mismatches)
		}
		if oracle.Checked != len(res.Sessions) || oracle.Skipped != 0 {
			t.Fatalf("oracle checked %d/%d sessions, skipped %d",
				oracle.Checked, len(res.Sessions), oracle.Skipped)
		}
	}

	s1, s2 := finalStates(t, res1), finalStates(t, res2)
	if len(s1) != len(s2) {
		t.Fatalf("run session counts differ: %d vs %d", len(s1), len(s2))
	}
	for key, state := range s1 {
		if other, ok := s2[key]; !ok {
			t.Fatalf("session %v missing from second run", key)
		} else if state != other {
			t.Fatalf("session %v final state diverged across same-seed runs:\n%s\nvs\n%s", key, state, other)
		}
	}
}

// TestOracleChecksGeneratedScenario runs a generated-family scenario
// (sparse:200, many regions) through the server and the oracle. The
// server echoes the scenario document's name, sparse_200_s1, which no
// spec resolves: the oracle has to replay from the program's own spec,
// or it checks nothing. It is also a second, independent sequential
// check of the DPM's region-scoped evaluation behind the HTTP stack.
func TestOracleChecksGeneratedScenario(t *testing.T) {
	w := testWorkload()
	w.Scenario = "sparse:200"
	w.Clients = 2
	w.SessionsPerClient = 1
	w.DeleteFrac = 0
	res := runHermetic(t, w, 2, nil)
	oracle, err := CheckOracle(res)
	if err != nil {
		t.Fatal(err)
	}
	if !oracle.OK() {
		t.Fatalf("oracle mismatches: %v", oracle.Mismatches)
	}
	if oracle.Checked != len(res.Sessions) || oracle.Checked == 0 {
		t.Fatalf("oracle checked %d of %d sessions (skipped %d)", oracle.Checked, len(res.Sessions), oracle.Skipped)
	}
}

// TestRetryInjectionReplay forces a duplicate send of every keyed
// batch and checks the duplicates all come back as idempotent replays,
// invisible to the oracle.
func TestRetryInjectionReplay(t *testing.T) {
	w := testWorkload()
	w.Clients = 2
	w.SessionsPerClient = 1
	w.RetryFrac = 1.0
	w.DeleteFrac = 0
	res := runHermetic(t, w, 2, nil)

	batches := 0
	for _, st := range res.Sessions {
		batches += len(st.Acked)
	}
	if batches == 0 {
		t.Fatal("no batches acked")
	}
	if res.Replays != uint64(batches) {
		t.Fatalf("replays %d, want one per acked batch (%d)", res.Replays, batches)
	}
	oracle, err := CheckOracle(res)
	if err != nil {
		t.Fatal(err)
	}
	if !oracle.OK() {
		t.Fatalf("oracle mismatches under retry injection: %v", oracle.Mismatches)
	}
}

// TestOpenLoopSmoke drives a short open-loop phase and checks the
// arrivals complete and stay oracle-clean.
func TestOpenLoopSmoke(t *testing.T) {
	w := testWorkload()
	w.Clients = 2
	w.SessionsPerClient = 1
	w.RetryFrac = 0
	progs, err := BuildPrograms(w)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.Open(server.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	r := &Runner{Target: &HandlerTarget{Handler: srv.Handler()}, Programs: progs, Seed: w.Seed}
	res, err := r.Run([]Phase{{Name: "open", Rate: 50, Duration: 200 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || len(res.Sessions) == 0 {
		t.Fatal("open-loop phase issued no work")
	}
	if res.Phases[0].Mode != "open" {
		t.Fatalf("phase mode %q, want open", res.Phases[0].Mode)
	}
	oracle, err := CheckOracle(res)
	if err != nil {
		t.Fatal(err)
	}
	if !oracle.OK() {
		t.Fatalf("oracle mismatches: %v", oracle.Mismatches)
	}
}

// TestRampPhasesAndTrace runs a two-phase ramp with a tracer attached
// and checks each phase emits one load-phase event that validates.
func TestRampPhasesAndTrace(t *testing.T) {
	w := testWorkload()
	w.Clients = 2
	w.SessionsPerClient = 1
	rec := trace.New(trace.Options{})
	progs, err := BuildPrograms(w)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.Open(server.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	r := &Runner{Target: &HandlerTarget{Handler: srv.Handler()}, Programs: progs, Seed: w.Seed, Tracer: rec}
	res, err := r.Run([]Phase{
		{Name: "warmup", Clients: 1},
		{Name: "steady", Clients: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 2 {
		t.Fatalf("got %d phases, want 2", len(res.Phases))
	}
	var phases int
	var phaseReqs uint64
	for _, e := range rec.Events() {
		if e.Kind == trace.KindLoadPhase {
			phases++
			phaseReqs += uint64(e.Operations)
			if e.Name == "" {
				t.Fatal("load-phase event without a name")
			}
		}
	}
	if phases != 2 {
		t.Fatalf("got %d load-phase events, want 2", phases)
	}
	if phaseReqs != res.Requests {
		t.Fatalf("phase events count %d requests, run counted %d", phaseReqs, res.Requests)
	}
	if got := res.Phases[0].Requests + res.Phases[1].Requests; got != res.Requests {
		t.Fatalf("phase stats sum %d, run counted %d", got, res.Requests)
	}
}

func TestBuildReport(t *testing.T) {
	w := testWorkload()
	res := runHermetic(t, w, 4, nil)
	oracle, err := CheckOracle(res)
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildReport(w, res, oracle)
	if rep.Requests != res.Requests {
		t.Fatalf("report requests %d, run %d", rep.Requests, res.Requests)
	}
	var sum uint64
	for _, ep := range rep.Endpoints {
		sum += ep.Requests
		if ep.P50Ms > ep.MaxMs {
			t.Fatalf("%s: p50 %.3f above max %.3f", ep.Endpoint, ep.P50Ms, ep.MaxMs)
		}
		if ep.P99Ms > ep.P999Ms || ep.P50Ms > ep.P99Ms {
			t.Fatalf("%s: quantiles not monotone", ep.Endpoint)
		}
	}
	if sum != rep.Total.Requests || sum != rep.Requests {
		t.Fatalf("endpoint requests sum %d, total %d, run %d", sum, rep.Total.Requests, rep.Requests)
	}
	if rep.Total.Statuses["201"] == 0 || rep.Total.Statuses["200"] == 0 {
		t.Fatalf("expected 200s and 201s in taxonomy, got %v", rep.Total.Statuses)
	}
	// JSON round-trip (the BENCH_load.json writer path).
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Requests != rep.Requests || back.Total.P99Ms != rep.Total.P99Ms {
		t.Fatal("report did not survive a JSON round-trip")
	}
	if rep.Human() == "" {
		t.Fatal("empty human report")
	}
}

func TestParseSLO(t *testing.T) {
	slo, err := ParseSLO("p50=5ms, p99=200ms,p99.9=1s,errs=1%,throughput=10")
	if err != nil {
		t.Fatal(err)
	}
	if len(slo.checks) != 5 {
		t.Fatalf("got %d checks, want 5", len(slo.checks))
	}
	for _, bad := range []string{
		"", "p99", "p99=", "p99=fast", "p98=5ms", "errs=150%", "errs=x",
		"throughput=0", "throughput=-1", "p99=0s",
	} {
		if _, err := ParseSLO(bad); err == nil {
			t.Fatalf("ParseSLO(%q) accepted", bad)
		}
	}
}

func TestSLOEval(t *testing.T) {
	rep := &Report{
		Requests:      1000,
		ErrorRate:     0.005,
		ThroughputRPS: 120,
	}
	rep.Total = EndpointReport{P50Ms: 1, P90Ms: 3, P99Ms: 8, P999Ms: 20, MaxMs: 40, MeanMs: 2}
	slo, err := ParseSLO("p99=10ms,errs=1%,throughput=100")
	if err != nil {
		t.Fatal(err)
	}
	results, ok := slo.Eval(rep)
	if !ok || len(results) != 3 {
		t.Fatalf("expected clean pass, got ok=%v results=%v", ok, results)
	}
	strict, err := ParseSLO("p99=5ms,errs=0.1%,throughput=200,max=10ms")
	if err != nil {
		t.Fatal(err)
	}
	results, ok = strict.Eval(rep)
	if ok {
		t.Fatal("strict SLO passed a report that violates every term")
	}
	for _, r := range results {
		if r.OK {
			t.Fatalf("term %s unexpectedly passed", r.Name)
		}
	}
}
