package teamsim

import (
	"fmt"
	"math/rand"

	"repro/internal/dcm"
	"repro/internal/designer"
	"repro/internal/dpm"
	"repro/internal/trace"
)

// RunConcurrent executes one simulation with the distributed
// architecture of Fig. 5: every simulated designer runs in its own
// goroutine (a Minerva III client with a simulated-designer engine) and
// exchanges messages with a DPM server goroutine that serializes the
// next-state function. Scheduling is nondeterministic, so per-run
// statistics vary across executions even for a fixed seed; use Run for
// reproducible experiments.
func RunConcurrent(cfg Config) (*Result, error) {
	if cfg.Scenario == nil {
		return nil, fmt.Errorf("teamsim: Config.Scenario is required")
	}
	sess, err := NewSession(cfg.Scenario, cfg.Mode, cfg.maxOps(), cfg.PropOpts)
	if err != nil {
		return nil, err
	}
	sess.Res.Seed = cfg.Seed
	d, bus := sess.D, sess.Bus

	master := rand.New(rand.NewSource(cfg.Seed))
	team, err := buildTeam(cfg, d, master)
	if err != nil {
		return nil, err
	}

	rec := cfg.Tracer
	d.SetTracer(rec)
	bus.SetTracer(rec)
	if rec.Enabled() {
		rec.Emit(trace.Event{Kind: trace.KindRunStart,
			Scenario: cfg.Scenario.Name, Mode: cfg.Mode.String(), Seed: cfg.Seed})
	}

	srv := &server{
		sess:    sess,
		rec:     rec,
		reqs:    make(chan request),
		done:    make(chan struct{}),
		exited:  make(chan struct{}),
		wake:    make(map[string]chan struct{}, len(team)),
		idle:    map[string]bool{},
		clients: len(team),
	}
	for _, ds := range team {
		srv.wake[ds.ID()] = make(chan struct{}, 1)
	}

	for _, ds := range team {
		go clientLoop(srv, ds)
	}
	// The server loop runs on this goroutine and returns once every
	// client goroutine has exited, so nothing leaks.
	srv.loop()

	res := srv.sess.Finish()
	emitRunEnd(rec, res)
	return res, nil
}

// request is one client→server message.
type request struct {
	kind reqKind
	id   string
	op   *dpm.Operation
	// stage is, for reqIdle, the history stage the client's view was
	// built at; an idle claim based on a stale view is rejected (the
	// client would otherwise miss information that arrived between its
	// view request and its idle claim — a lost wakeup).
	stage int
	reply chan response
}

type reqKind int

const (
	reqView reqKind = iota
	reqApply
	reqIdle
)

type response struct {
	view  *dcm.View
	tr    *dpm.Transition
	err   error
	stop  bool
	stale bool
	stage int
}

// server owns the session; all state transitions happen on its
// goroutine.
type server struct {
	sess    *Session
	rec     *trace.Recorder
	reqs    chan request
	done    chan struct{}
	exited  chan struct{}
	wake    map[string]chan struct{}
	idle    map[string]bool
	clients int
	stopped bool
}

func (s *server) loop() {
	remaining := s.clients
	for remaining > 0 {
		var req request
		select {
		case req = <-s.reqs:
		case <-s.exited:
			remaining--
			continue
		}
		switch req.kind {
		case reqView:
			if s.stopped {
				req.reply <- response{stop: true}
				continue
			}
			s.sess.Bus.Drain(req.id)
			req.reply <- response{view: dcm.BuildView(s.sess.D, req.id), stage: s.sess.D.Stage()}
		case reqApply:
			if s.stopped {
				req.reply <- response{stop: true}
				continue
			}
			// Session.Apply checks the budget on the server goroutine,
			// before δ executes, so in-flight apply requests can never
			// push the operation count past MaxOps: the op that would
			// exceed the budget is rejected, not applied.
			tr, err := s.sess.Apply(*req.op)
			if err == ErrOpBudget {
				s.stop()
				req.reply <- response{stop: true}
				continue
			}
			if err != nil {
				req.reply <- response{err: err}
				s.stop()
				continue
			}
			delete(s.idle, req.id)
			// New information may unblock idle designers.
			for id, ch := range s.wake {
				if s.idle[id] {
					delete(s.idle, id)
					if s.rec.Enabled() {
						s.rec.Emit(trace.Event{Kind: trace.KindWake, Stage: s.sess.D.Stage(), Designer: id})
					}
					select {
					case ch <- struct{}{}:
					default:
					}
				}
			}
			if s.sess.D.Done() || s.sess.Exhausted() {
				s.stop()
			}
			req.reply <- response{tr: tr, stop: s.stopped}
		case reqIdle:
			if req.stage != s.sess.D.Stage() {
				// The design state moved since this client's view; its
				// idleness decision is stale.
				req.reply <- response{stale: true, stop: s.stopped}
				continue
			}
			s.idle[req.id] = true
			if s.rec.Enabled() {
				s.rec.Emit(trace.Event{Kind: trace.KindIdle, Stage: s.sess.D.Stage(),
					Designer: req.id, Idle: len(s.idle)})
			}
			if len(s.idle) == s.clients {
				// Every designer is simultaneously idle: deadlock.
				s.sess.Res.Deadlocked = !s.sess.D.Done()
				s.stop()
			}
			req.reply <- response{stop: s.stopped}
		}
	}
}

func (s *server) stop() {
	if !s.stopped {
		s.stopped = true
		close(s.done)
		for _, ch := range s.wake {
			select {
			case ch <- struct{}{}:
			default:
			}
		}
	}
}

// clientLoop is one simulated-designer client: request view, choose an
// operation, submit it; when idle, wait to be woken by new information.
func clientLoop(srv *server, ds *designer.Designer) {
	defer func() { srv.exited <- struct{}{} }()
	for {
		resp := srv.send(request{kind: reqView, id: ds.ID()})
		if resp.stop {
			return
		}
		stage := resp.stage
		op := ds.SelectOperation(resp.view)
		if op == nil {
			resp = srv.send(request{kind: reqIdle, id: ds.ID(), stage: stage})
			if resp.stop {
				return
			}
			if resp.stale {
				continue // state moved; rebuild the view
			}
			select {
			case <-srv.wake[ds.ID()]:
			case <-srv.done:
				return
			}
			continue
		}
		resp = srv.send(request{kind: reqApply, id: ds.ID(), op: op})
		if resp.err != nil {
			return
		}
		ds.ObserveTransition(resp.tr)
		if resp.stop {
			return
		}
	}
}

func (s *server) send(req request) response {
	req.reply = make(chan response, 1)
	select {
	case s.reqs <- req:
		return <-req.reply
	case <-s.done:
		return response{stop: true}
	}
}
