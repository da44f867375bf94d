package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/constraint"
	"repro/internal/dddl"
	"repro/internal/dpm"
	"repro/internal/expr"
	"repro/internal/interval"
	"repro/internal/loadgen"
	"repro/internal/notify"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/teamsim"
	"repro/internal/trace"
)

// Direct-call probes: cheap timings of each layer's public functions,
// with no HTTP and no processes. Every probe does a fixed amount of
// work (iteration counts, not durations), so its count metrics repeat
// exactly; the smoke test divides the counts.

// probeSink keeps results alive so the compiler cannot drop the calls.
var probeSink interval.Interval

// meanOf times n calls of f and returns the mean in nanoseconds.
func meanOf(n int, f func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// medianOfRounds repeats a timed round and returns the median of the
// rounds' values, which one preempted round cannot move.
func medianOfRounds(rounds int, round func() float64) float64 {
	vs := make([]float64, rounds)
	for i := range vs {
		vs[i] = round()
	}
	return median(vs)
}

// historyOf returns the operations of one seeded TeamSim run.
func historyOf(scn *dddl.Scenario, seed int64) ([]dpm.Operation, error) {
	res, err := teamsim.Run(teamsim.Config{Scenario: scn, Mode: dpm.ADPM, Seed: seed, MaxOps: 200})
	if err != nil {
		return nil, err
	}
	var ops []dpm.Operation
	for _, tr := range res.Process.History() {
		ops = append(ops, tr.Op)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("probe: empty history for %s", scn.Name)
	}
	return ops, nil
}

// prober runs the probes of one workload into m. n scales an iteration
// count down for the smoke test.
type prober struct {
	seed  int64
	short bool
	m     metricSet
}

func (p *prober) n(full int) int {
	if p.short {
		return max(full/20, 1)
	}
	return full
}

func (p *prober) set(name string, v float64) { p.m.set(perLayer, name, v, 0) }

// runProbes fills m with the probes that belong to workload w: each
// probe runs under the workload whose end-to-end numbers its layer
// should move, once, not under all five.
func runProbes(w *workload, seed int64, short bool, m metricSet) error {
	p := &prober{seed: seed, short: short, m: m}
	switch w.Name {
	case "sim-corpus":
		return p.numerics()
	case "serve-small":
		return p.serving()
	case "serve-large":
		return p.largeNetwork()
	case "serve-durable":
		return p.ring()
	case "serve-watch":
		return p.watching()
	}
	return fmt.Errorf("probe: no probes for workload %q", w.Name)
}

// numerics (sim-corpus): interval arithmetic, one constraint revision
// and a full propagation on a paper-size network.
func (p *prober) numerics() error {
	ivs := []interval.Interval{interval.New(-2, 3), interval.New(0.5, 7), interval.New(-9, -1), interval.New(1e-3, 4e3)}
	p.set("interval.mul_ns", medianOfRounds(5, func() float64 {
		i := 0
		return meanOf(p.n(400000), func() {
			probeSink = ivs[i&3].Mul(ivs[(i+1)&3])
			i++
		})
	}))
	small, err := dpm.FromScenario(scenario.Receiver(), dpm.ADPM)
	if err != nil {
		return err
	}
	box := expr.MapBox{}
	for _, prop := range small.Net.Properties() {
		if prop.IsNumeric() {
			box[prop.Name] = small.Net.Domain(prop.Name)
		}
	}
	cons := small.Net.Constraints()
	p.set("expr.revise_ns", medianOfRounds(5, func() float64 {
		return meanOf(p.n(200), func() {
			for _, c := range cons {
				c.Narrow(box)
			}
		}) / float64(len(cons))
	}))
	p.set("constraint.propagate_small_us", medianOfRounds(5, func() float64 {
		return meanOf(p.n(200), func() {
			small.Net.ResetFeasible()
			small.Net.Propagate(constraint.PropagateOptions{})
		}) / 1e3
	}))
	return nil
}

// largeNetwork (serve-large): propagation, cloning, session creation
// and the workload's own script on sparse:1000, straight into the engine.
func (p *prober) largeNetwork() error {
	sparse, err := scenario.Scale("sparse", 1000, 1) // serve-large's network
	if err != nil {
		return err
	}
	large, err := dpm.FromScenario(sparse.Scenario, dpm.ADPM)
	if err != nil {
		return err
	}
	var evals int64
	p.set("constraint.propagate_large_us", medianOfRounds(5, func() float64 {
		return meanOf(p.n(20), func() {
			large.Net.ResetFeasible()
			evals = large.Net.Propagate(constraint.PropagateOptions{}).Evaluations
		}) / 1e3
	}))
	p.set("constraint.evals_per_propagate_large", float64(evals))
	scratch := &constraint.Network{}
	p.set("constraint.clone_large_us", medianOfRounds(5, func() float64 {
		return meanOf(p.n(100), func() { large.Net.CloneInto(scratch) }) / 1e3
	}))
	script := reorderScript(sparse.Ops, p.seed)
	if p.short {
		script = script[:8]
	}
	tr := trace.New(trace.Options{})
	sess, ns, err := replayOps(sparse.Scenario, script, tr)
	if err != nil {
		return err
	}
	c := tr.Counters()
	_ = tr.Close()
	p.set("dpm.apply_large_us", ns/1e3/float64(len(script)))
	p.set("dpm.evals_per_op_large", float64(sess.Res.Evaluations)/float64(len(script)))
	p.set("dpm.propagate_share_large", float64(c.PropagateNanos)/float64(c.OperationNanos))
	p.set("dpm.window_share_large", float64(c.WindowRefreshNanos)/float64(c.OperationNanos))
	p.set("teamsim.new_session_large_us", medianOfRounds(p.n(5), func() float64 {
		return meanOf(1, func() {
			_, err = teamsim.NewSession(sparse.Scenario, dpm.ADPM, 0, constraint.PropagateOptions{})
		}) / 1e3
	}))
	return err
}

// ring (serve-durable): the proxy's owner lookup.
func (p *prober) ring() error {
	view, err := cluster.NewView(&cluster.Table{Epoch: 1, Seed: 1,
		Pairs: []cluster.Pair{{Name: "a", Bases: []string{"http://127.0.0.1:1"}}, {Name: "b", Bases: []string{"http://127.0.0.1:2"}}}})
	if err != nil {
		return err
	}
	minter := cluster.NewMinter("p0")
	ids := make([]string, 256)
	for i := range ids {
		ids[i] = minter.Mint()
	}
	var owner *cluster.Pair
	p.set("cluster.owner_ns", medianOfRounds(5, func() float64 {
		i := 0
		return meanOf(p.n(100000), func() {
			owner = view.Owner(ids[i&255])
			i++
		})
	}))
	if owner == nil {
		return fmt.Errorf("probe: ring resolved no owner")
	}
	return nil
}

// watching (serve-watch): a receiver history straight into the engine,
// and the notification fan-out.
func (p *prober) watching() error {
	receiver := scenario.Receiver()
	history, err := historyOf(receiver, p.seed)
	if err != nil {
		return err
	}
	var evals float64
	p.set("dpm.apply_small_us", medianOfRounds(p.n(9), func() float64 {
		sess, ns, rerr := replayOps(receiver, history, nil)
		if rerr != nil {
			err = rerr
			return 0
		}
		evals = float64(sess.Res.Evaluations) / float64(len(history))
		return ns / 1e3 / float64(len(history))
	}))
	if err != nil {
		return err
	}
	p.set("dpm.evals_per_op_small", evals)
	return p.fanout(receiver, history)
}

// replayOps applies ops to a fresh session and returns it with the
// time spent in Apply.
func replayOps(scn *dddl.Scenario, ops []dpm.Operation, tr *trace.Recorder) (*teamsim.Session, float64, error) {
	sess, err := teamsim.NewSession(scn, dpm.ADPM, 0, constraint.PropagateOptions{})
	if err != nil {
		return nil, 0, err
	}
	if tr != nil {
		sess.SetTracer(tr)
	}
	t0 := time.Now()
	for i, op := range ops {
		if _, err := sess.Apply(op); err != nil {
			return nil, 0, fmt.Errorf("probe: replaying op %d: %w", i, err)
		}
	}
	return sess, float64(time.Since(t0).Nanoseconds()), nil
}

// serving (serve-small) times session creation and the serving path
// without a socket: the same batches straight into ApplyKeyed and
// through Handler() in memory; the difference is what JSON and the mux
// cost. State reads are timed on a hit (unchanged generation) and right
// after a mutation.
func (p *prober) serving() error {
	n, set := p.n, p.set
	simplified := scenario.Simplified()
	var err error
	set("teamsim.new_session_small_us", medianOfRounds(5, func() float64 {
		return meanOf(n(100), func() {
			_, err = teamsim.NewSession(simplified, dpm.ADPM, 0, constraint.PropagateOptions{})
		}) / 1e3
	}))
	if err != nil {
		return err
	}
	small, _ := workloadByName("serve-small")
	progs, _, err := buildPrograms(small, p.seed, 1, p.short)
	if err != nil {
		return err
	}
	prog := &progs[0][0]
	srv := server.New(server.Options{})
	defer srv.Drain()
	create := func() (string, error) {
		resp, err := srv.CreateSession(server.CreateSpec{Name: prog.Scenario, Mode: dpm.ADPM, MaxOps: prog.MaxOps})
		if err != nil {
			return "", err
		}
		return resp.ID, nil
	}
	var bodies [][]byte
	var steps []*loadgen.Step
	for i := range prog.Steps {
		if st := &prog.Steps[i]; st.Kind == loadgen.StepOps && !st.Retry {
			b, _ := json.Marshal(server.OpsRequest{Ops: st.Ops, Key: st.Key})
			bodies = append(bodies, b)
			steps = append(steps, st)
		}
	}
	if len(steps) == 0 {
		return fmt.Errorf("probe: program has no batches")
	}
	var perr error
	direct := medianOfRounds(n(41), func() float64 {
		id, err := create()
		if err != nil {
			perr = err
			return 0
		}
		t0 := time.Now()
		for _, st := range steps {
			if _, _, err := srv.ApplyKeyed(id, st.Key, st.EngineOps); err != nil {
				perr = err
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(steps))
	})
	target := &loadgen.HandlerTarget{Handler: srv.Handler()}
	handler := medianOfRounds(n(41), func() float64 {
		id, err := create()
		if err != nil {
			perr = err
			return 0
		}
		path := "/sessions/" + id + "/ops"
		t0 := time.Now()
		for _, b := range bodies {
			if resp, err := target.Do(http.MethodPost, path, b); err != nil || resp.Status != http.StatusOK {
				perr = fmt.Errorf("probe: handler batch answered %v %v", resp, err)
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(bodies))
	})
	if perr != nil {
		return perr
	}
	set("server.apply_direct_us", direct)
	set("server.handler_us", handler)
	set("server.codec_us", handler-direct)

	resp, err := srv.CreateSession(server.CreateSpec{Name: "simplified", Mode: dpm.ADPM, MaxOps: 1 << 30})
	if err != nil {
		return err
	}
	if _, err := srv.StateBytes(resp.ID); err != nil { // fill the cache
		return err
	}
	set("server.state_hit_us", medianOfRounds(5, func() float64 {
		return meanOf(n(2000), func() { _, perr = srv.StateBytes(resp.ID) }) / 1e3
	}))
	bump := []dpm.Operation{{Kind: dpm.OpVerification, Problem: "AmpDesign", Designer: "bench"}}
	miss := make([]float64, n(500))
	for i := range miss {
		if _, err := srv.Apply(resp.ID, bump); err != nil { // new generation
			return err
		}
		t0 := time.Now()
		_, perr = srv.StateBytes(resp.ID)
		miss[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	set("server.state_miss_us", median(miss))
	return perr
}

// fanout times the notification fan-out: Hub.Publish into one subscriber's queue,
// and the in-process path from the shard's publish stamp to the
// subscriber's Next, which is what an SSE delivery costs before
// encoding and TCP.
func (p *prober) fanout(receiver *dddl.Scenario, history []dpm.Operation) error {
	n, set := p.n, p.set
	var stats notify.HubStats
	hub := notify.NewHub(&stats)
	sub := hub.Subscribe(nil, notify.DropOldest, 256)
	ev := notify.SeqEvent{Event: notify.Event{Stage: 1, Property: "p"}}
	set("notify.publish_ns", medianOfRounds(5, func() float64 {
		i := 0
		return meanOf(n(100000), func() {
			ev.ID++
			hub.Publish(ev)
			if i++; i&127 == 0 {
				sub.Next(0) // keep the queue from overflowing into the drop path
			}
		})
	}))
	hub.Close()

	srv := server.New(server.Options{})
	defer srv.Drain()
	resp, err := srv.CreateSession(server.CreateSpec{Scenario: receiver, Mode: dpm.ADPM, MaxOps: len(history)})
	if err != nil {
		return err
	}
	live, err := srv.Subscribe(resp.ID, server.SubscribeOptions{QueueCap: server.MaxSubscriberQueue})
	if err != nil {
		return err
	}
	var lat []float64
	events := 0
	got := make(chan struct{})
	go func() {
		defer close(got)
		for {
			select {
			case <-live.Wake():
			case <-live.Done():
				for _, e := range live.Next(0) {
					_ = e
					events++
				}
				return
			}
			now := time.Now().UnixNano()
			for _, e := range live.Next(0) {
				events++
				lat = append(lat, float64(now-e.PubNanos)/1e3)
			}
		}
	}()
	for _, op := range history {
		if _, err := srv.Apply(resp.ID, []dpm.Operation{op}); err != nil {
			live.Close()
			<-got
			return err
		}
		time.Sleep(200 * time.Microsecond) // a designer's pace: deliveries do not queue behind each other
	}
	time.Sleep(5 * time.Millisecond)
	live.Close()
	<-got
	if len(lat) > 0 {
		sort.Float64s(lat)
		set("notify.deliver_inproc_us", quantile(lat, 0.5))
	}
	set("notify.events_per_op", float64(events)/float64(len(history)))
	return nil
}
