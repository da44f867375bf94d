package main

import (
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/loadgen"
)

// e2eResult is one workload's end-to-end run.
type e2eResult struct {
	// Metrics holds every end-to-end metric.
	Metrics metricSet `json:"metrics"`
	// Extra holds what is measured but not declared (create, state,
	// deliver and run latencies, p99s, fail_frac) and the validity gauges.
	Extra metricSet `json:"extra,omitempty"`
	// Attempted and Failed count requests of the measured run over all
	// endpoints; a session whose served state the oracle rejects fails
	// all its requests.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Ops is the number of design operations acknowledged in the
	// measured run.
	Ops int `json:"ops"`
	// Sessions and Checked count the oracle's work.
	Sessions int `json:"sessions"`
	Checked  int `json:"checked"`
	// Valid is false when the generator itself was the bottleneck; the
	// run is then not a result. Notes say why.
	Valid    bool     `json:"valid"`
	Notes    []string `json:"notes,omitempty"`
	Cmdlines []string `json:"cmdlines,omitempty"`
}

// Set-up is repeated so its median is steady: at least setupMinReps
// times, and cheap set-ups until setupBudget is spent. (Nine set-ups of
// sim-corpus's 0.4ms spread by 54% over ten runs, fifty-one by 4%.)
const (
	setupMinReps = 5
	setupMaxReps = 51
	setupBudget  = time.Second
)

// medianSetup runs setup repeatedly, tearing each instance down except
// the last, and returns the median set-up time and the last instance's
// teardown. once sets up a single time (the smoke test).
func medianSetup(once bool, setup func() (teardown func(), err error)) (time.Duration, func(), error) {
	var times []float64
	var total time.Duration
	for {
		t0 := time.Now()
		teardown, err := setup()
		if err != nil {
			return 0, nil, err
		}
		d := time.Since(t0)
		times = append(times, d.Seconds())
		total += d
		if once || len(times) >= setupMaxReps || (len(times) >= setupMinReps && total >= setupBudget) {
			return time.Duration(median(times) * float64(time.Second)), teardown, nil
		}
		teardown()
	}
}

// newHTTPTarget returns a target with a connection pool of its own, so
// each client is exactly one TCP connection.
func newHTTPTarget(base string) *loadgen.HTTPTarget {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, IdleConnTimeout: time.Minute}
	return &loadgen.HTTPTarget{Base: base, Client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// firstSession creates one session of the program's scenario and
// deletes it again.
func firstSession(base string, prog *loadgen.Program) error {
	log := &clientLog{t0: time.Now()}
	cl := &client{target: newHTTPTarget(base), log: log}
	sess := cl.create(prog, time.Now())
	if sess.createFailed {
		return fmt.Errorf("create %q failed", prog.Scenario)
	}
	if cl.do(kindDelete, sess, http.MethodDelete, "/sessions/"+sess.id, nil, time.Now(), http.StatusOK) == nil {
		return fmt.Errorf("delete %s failed", sess.id)
	}
	return nil
}

// runServeE2E measures one serving workload end to end against child
// processes over loopback TCP, tracing off.
func runServeE2E(cfg *config, w *workload) (*e2eResult, error) {
	seed, short, warm, measure := cfg.seed, cfg.short, cfg.warm(), cfg.measure()
	clients := clientCount()
	if w.OpenLoop {
		awake, err := keepAwake(cfg.self)
		if err != nil {
			return nil, err
		}
		defer awake.stop()
	}
	var sys *system
	progs, spec, err := buildPrograms(w, seed, clients, short)
	if err != nil {
		return nil, err
	}
	// Set-up: start the processes, wait until the client-facing one is
	// ready, and open and retire a first session, which pays whatever the
	// system leaves for its first request. Deriving the programs is the
	// generator's own work and stays outside.
	setup, teardown, err := medianSetup(short, func() (func(), error) {
		s, err := startSystem(w.Stack, cfg.bins, cfg.tmp)
		if err != nil {
			return nil, err
		}
		if err := firstSession(s.base, &progs[0][0]); err != nil {
			logs := s.logs()
			s.stop()
			return nil, fmt.Errorf("first session: %w\n%s", err, logs)
		}
		sys = s
		return s.stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()

	start := time.Now()
	t0 := start.Add(warm)
	end := t0.Add(measure)
	stop := func() bool { return !time.Now().Before(end) }
	logs := make([]*clientLog, len(progs))
	var wg sync.WaitGroup
	for c := range progs {
		logs[c] = &clientLog{t0: t0}
		cl := &client{target: newHTTPTarget(sys.base), log: logs[c]}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w.OpenLoop {
				sub := func(sess *sessionRec) *subscriber { return startSubscriber(newHTTPTarget(sys.base), sess, t0) }
				cl.runWatch(progs[c], watchCycle, start, stop, sub)
			} else {
				cl.runClosed(progs[c], stop)
			}
		}()
	}
	// CPU of the processes under test, over the measured run only.
	sleepUntil(t0)
	cpu0, self0 := sys.cpuTime(), selfCPU()
	sleepUntil(end)
	cpu, self := sys.cpuTime()-cpu0, selfCPU()-self0
	wg.Wait()
	rss := sys.peakRSSMB()

	res := &e2eResult{Metrics: metricSet{}, Extra: metricSet{}, Valid: true, Cmdlines: sys.cmdlines}
	var samples []reqSample
	var sessions []*sessionRec
	for _, l := range logs {
		samples = append(samples, l.samples...)
		sessions = append(sessions, l.sessions...)
	}
	bad, checked, err := checkSessions(spec, sessions)
	if err != nil {
		return nil, err
	}
	res.Sessions, res.Checked = len(sessions), checked
	for s, why := range bad {
		if len(res.Notes) < 5 {
			res.Notes = append(res.Notes, fmt.Sprintf("session %s: %s", s.id, why))
		}
	}
	aggregate(res, w, samples, bad, measure)
	res.Metrics.set(endToEnd, "setup_s", setup.Seconds(), 0)
	if res.Ops > 0 {
		res.Metrics.set(endToEnd, "cpu_ms_per_op", cpu.Seconds()*1e3/float64(res.Ops), 0)
	}
	res.Metrics.set(endToEnd, "rss_peak_mb", rss, 0)

	// Validity: a closed loop whose generator takes more than half of all
	// CPU, or an open loop that ran more than 1ms late, measured itself.
	// (The open loop's generator spins before every slot beside a server
	// that is nearly idle, so its share of the CPU says nothing.)
	frac := self.Seconds() / (self.Seconds() + cpu.Seconds())
	res.Extra["loadgen.client_cpu_frac"] = Metric{Value: frac, Unit: "frac"}
	if frac > 0.5 && !w.OpenLoop {
		res.Valid = false
		res.Notes = append(res.Notes, fmt.Sprintf("generator used %.0f%% of all CPU", frac*100))
	}
	if late, ok := res.Extra["loadgen.late_p99_ms"]; ok && late.Value > 1 {
		res.Valid = false
		res.Notes = append(res.Notes, fmt.Sprintf("open-loop generator ran %.2fms late at p99", late.Value))
	}
	if res.Failed > 0 && len(bad) == 0 {
		fmt.Fprintf(os.Stderr, "%s", sys.logs())
	}
	return res, nil
}

// aggregate turns the samples of the measured run into metrics. A
// request that failed, was refused, or belongs to a session the oracle
// rejected counts as failed and as missing the latency limit.
func aggregate(res *e2eResult, w *workload, samples []reqSample, bad map[*sessionRec]string, runLen time.Duration) {
	lat := make([][]timed, numKinds)
	var acked []timed
	var late []float64
	within, opsReqs := 0, 0
	for _, s := range samples {
		if s.at < 0 || s.at > runLen {
			continue // warm-up, or finished after the run ended
		}
		if s.kind == kindDeliver {
			lat[s.kind] = append(lat[s.kind], timed{s.at, s.lat.Seconds() * 1e3})
			continue
		}
		res.Attempted++
		_, rejected := bad[s.sess]
		good := s.ok && !rejected
		if !good {
			res.Failed++
		} else {
			lat[s.kind] = append(lat[s.kind], timed{s.at, s.lat.Seconds() * 1e3})
			res.Ops += s.nops
			acked = append(acked, timed{s.at, float64(s.nops)})
		}
		if s.kind == kindOps {
			opsReqs++
			if good && s.lat <= w.Limit {
				within++
			}
		}
		if w.OpenLoop {
			late = append(late, s.late.Seconds()*1e3)
		}
	}
	q := func(kind int, p float64) (float64, int) { return windowQuantile(lat[kind], runLen, p) }
	res.Metrics.set(endToEnd, "ops_per_s", medianRate(acked, runLen), 0)
	v, n := q(kindOps, 0.50)
	res.Metrics.set(endToEnd, "ops_p50_ms", v, n)
	v, n = q(kindOps, 0.95)
	res.Metrics.set(endToEnd, "ops_p95_ms", v, n)
	if opsReqs > 0 {
		res.Metrics.set(endToEnd, "slo_ok_frac", float64(within)/float64(opsReqs), opsReqs)
	}
	extra := func(name string, kind int, p float64) {
		if v, n := q(kind, p); n > 0 {
			res.Extra[name] = Metric{Value: v, Unit: "ms", N: n}
		}
	}
	extra("ops_p99_ms", kindOps, 0.99)
	extra("create_p50_ms", kindCreate, 0.50)
	extra("state_p50_ms", kindState, 0.50)
	extra("state_p99_ms", kindState, 0.99)
	extra("deliver_p50_ms", kindDeliver, 0.50)
	extra("deliver_p99_ms", kindDeliver, 0.99)
	if len(late) > 0 {
		sort.Float64s(late)
		res.Extra["loadgen.late_p99_ms"] = Metric{Value: quantile(late, 0.99), Unit: "ms", N: len(late)}
	}
	if res.Attempted > 0 {
		res.Extra["fail_frac"] = Metric{Value: float64(res.Failed) / float64(res.Attempted), Unit: "frac", N: res.Attempted}
	}
}
