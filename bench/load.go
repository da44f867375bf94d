package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/loadgen"
	"repro/internal/server"
)

// Request kinds; the first four are loadgen's step kinds.
const (
	kindCreate = iota
	kindOps
	kindState
	kindDelete
	kindDeliver
	numKinds
)

// reqSample is one request (or one delivered notification) as the
// client saw it. at is the completion time counted from the start of
// the measured run; samples of the warm-up have at < 0.
type reqSample struct {
	kind int
	at   time.Duration
	lat  time.Duration // from when the request was due to its last byte
	late time.Duration // how long after it was due the request was sent
	ok   bool
	nops int // design operations this request acknowledged for the first time
	sess *sessionRec
}

// sessionRec is what one executed program did — everything the oracle
// needs to judge the served final state against a sequential replay.
type sessionRec struct {
	prog     *loadgen.Program
	id       string
	scenario string // the name the server resolved
	maxOps   int
	// acked indexes prog.Steps: the batches acknowledged 200 and not as
	// an idempotent replay, in send order.
	acked []int
	// final is the body of the last GET /state answered 200.
	final        []byte
	createFailed bool
	// events checks the subscriber's stream (serve-watch): ids must run
	// 1..n without a gap.
	eventIDs []int
}

// clientLog is one client's private record; logs merge after the run.
type clientLog struct {
	t0       time.Time // start of the measured run
	samples  []reqSample
	sessions []*sessionRec
	requests int // requests issued so far (samples also holds deliveries)
}

// client plays programs against a target.
type client struct {
	target loadgen.Target
	log    *clientLog
}

// do issues one request that was due at due and records it. The
// latency clock starts at due, not at the send: in an open loop a
// stall delays the requests behind it, and that wait is theirs.
func (c *client) do(kind int, sess *sessionRec, method, path string, body []byte, due time.Time, wantStatus int) *loadgen.Response {
	sent := time.Now()
	resp, err := c.target.Do(method, path, body)
	done := time.Now()
	ok := err == nil && resp.Status == wantStatus
	c.log.requests++
	c.log.samples = append(c.log.samples, reqSample{
		kind: kind, at: done.Sub(c.log.t0), lat: done.Sub(due), late: sent.Sub(due), ok: ok, sess: sess,
	})
	if !ok {
		return nil
	}
	return resp
}

// last returns the sample do just recorded.
func (c *client) last() *reqSample { return &c.log.samples[len(c.log.samples)-1] }

// create opens the program's session; nil when the create failed.
func (c *client) create(prog *loadgen.Program, due time.Time) *sessionRec {
	sess := &sessionRec{prog: prog}
	c.log.sessions = append(c.log.sessions, sess)
	body, _ := json.Marshal(server.CreateRequest{Scenario: prog.Scenario, Mode: prog.Mode, MaxOps: prog.MaxOps})
	resp := c.do(kindCreate, sess, http.MethodPost, "/sessions", body, due, http.StatusCreated)
	var created server.CreateResponse
	if resp == nil || json.Unmarshal(resp.Body, &created) != nil || created.ID == "" {
		if resp != nil {
			c.last().ok = false
		}
		sess.createFailed = true
		return sess
	}
	sess.id, sess.scenario, sess.maxOps = created.ID, created.Scenario, created.MaxOps
	return sess
}

// step issues program step i (an ops, state or delete step) of sess.
func (c *client) step(sess *sessionRec, i int, due time.Time) {
	st := &sess.prog.Steps[i]
	switch st.Kind {
	case loadgen.StepOps:
		body, _ := json.Marshal(server.OpsRequest{Ops: st.Ops, Key: st.Key})
		resp := c.do(kindOps, sess, http.MethodPost, "/sessions/"+sess.id+"/ops", body, due, http.StatusOK)
		if resp != nil && resp.Header.Get("Idempotent-Replay") != "true" {
			sess.acked = append(sess.acked, i)
			c.last().nops = len(st.Ops)
		}
	case loadgen.StepState:
		c.readState(sess, due)
	case loadgen.StepDelete:
		c.do(kindDelete, sess, http.MethodDelete, "/sessions/"+sess.id, nil, due, http.StatusOK)
	}
}

func (c *client) readState(sess *sessionRec, due time.Time) {
	if resp := c.do(kindState, sess, http.MethodGet, "/sessions/"+sess.id+"/state", nil, due, http.StatusOK); resp != nil {
		sess.final = resp.Body
	}
}

// finalState reads the state of a session cut short by the end of the
// run, outside the measurement, so the oracle can still judge it.
func (c *client) finalState(sess *sessionRec) {
	resp, err := c.target.Do(http.MethodGet, "/sessions/"+sess.id+"/state", nil)
	if err == nil && resp.Status == http.StatusOK {
		sess.final = resp.Body
	}
}

// runClosed plays progs in a closed loop — the next request goes out
// when the previous one is answered — cycling until stop reports true.
// stop is consulted before every request; a session cut short gets its
// state read once more, unmeasured.
func (c *client) runClosed(progs []loadgen.Program, stop func() bool) {
	for n := 0; !stop(); n++ {
		prog := &progs[n%len(progs)]
		sess := c.create(prog, time.Now())
		if sess.createFailed {
			continue
		}
		cut := false
		for i := 1; i < len(prog.Steps); i++ {
			if stop() {
				cut = true
				break
			}
			c.step(sess, i, time.Now())
		}
		if cut {
			c.finalState(sess)
		}
	}
}

// sleepUntil waits for an absolute time. The last stretch spins: the Go
// runtime sleeps in whole milliseconds of epoll timeout, so a timer
// wake-up is up to a millisecond late, which would be charged to the
// system under test as latency.
func sleepUntil(t time.Time) {
	const spin = 1200 * time.Microsecond
	if d := time.Until(t) - spin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// runWatch plays the designer of serve-watch on an absolute schedule.
// Cycle j starts at start + j*cycle with one 1-op batch; a quarter, a
// half and three quarters of a cycle later the designer reads the
// state. When the batch was the session's last, the three later slots
// carry the final read, the delete and the next session's create
// instead, so every cycle holds exactly one op whatever the sessions'
// lengths. Every request is timed from its slot, however late it went
// out. A subscriber follows each session. The designer stops at the
// first cycle boundary at which stop reports true and reads the open
// session's state once more, unmeasured.
func (c *client) runWatch(progs []loadgen.Program, cycle time.Duration, start time.Time, stop func() bool, subscribe func(*sessionRec) *subscriber) {
	var sess *sessionRec
	var sub *subscriber
	var ops []int // the session's batches, as indexes into its program's steps
	opened := 0
	open := func(due time.Time) {
		prog := &progs[opened%len(progs)]
		opened++
		sess, sub, ops = c.create(prog, due), nil, nil
		if sess.createFailed {
			sess = nil
			return
		}
		for i := range prog.Steps {
			if prog.Steps[i].Kind == loadgen.StepOps {
				ops = append(ops, i)
			}
		}
		if len(ops) == 0 {
			panic("adpmbench: serve-watch program without a batch")
		}
		sub = subscribe(sess)
	}
	open(time.Now())
	k := 0     // next batch of the session
	first := 0 // the first cycle that starts after the first create was answered
	if d := time.Since(start); d > 0 {
		first = int(d/cycle) + 1
	}
	for j := first; !stop(); j++ {
		slot := start.Add(time.Duration(j) * cycle)
		sleepUntil(slot)
		if sess == nil { // the last create failed: the cycle's slot retries it
			open(slot)
			k = 0
			continue
		}
		quarter := func(q int) time.Time {
			due := slot.Add(time.Duration(q) * cycle / 4)
			sleepUntil(due)
			return due
		}
		c.step(sess, ops[k], slot)
		if k++; k < len(ops) {
			for q := 1; q <= 3; q++ {
				c.readState(sess, quarter(q))
			}
			continue
		}
		c.readState(sess, quarter(1))
		c.do(kindDelete, sess, http.MethodDelete, "/sessions/"+sess.id, nil, quarter(2), http.StatusOK)
		sub.stop(c.log)
		open(quarter(3))
		k = 0
	}
	if sess != nil {
		// The run may end on a session just opened, never read: give the
		// oracle its state, unmeasured.
		c.finalState(sess)
	}
	if sub != nil {
		// Let the last batch's notifications arrive before the stream closes.
		time.Sleep(20 * time.Millisecond)
		sub.stop(c.log)
	}
}

// subscriber is one live SSE reader on a session's event stream. Every
// live frame carries the server's publish stamp, so the reader measures
// publish-to-parsed latency per notification on one clock (same host).
type subscriber struct {
	body interface{ Close() error }
	done chan struct{}
	sess *sessionRec
	t0   time.Time
	mu   sync.Mutex
	out  []reqSample
	ids  []int
}

// startSubscriber opens the stream; nil when it could not be opened.
func startSubscriber(target loadgen.StreamTarget, sess *sessionRec, t0 time.Time) *subscriber {
	body, status, err := target.Stream("/sessions/" + sess.id + "/events")
	if err != nil {
		return nil
	}
	if status != http.StatusOK {
		body.Close()
		return nil
	}
	s := &subscriber{body: body, done: make(chan struct{}), sess: sess, t0: t0}
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(body)
		id := 0
		for sc.Scan() {
			line := sc.Bytes()
			if rest, ok := bytes.CutPrefix(line, []byte("id: ")); ok {
				id, _ = strconv.Atoi(string(rest))
				continue
			}
			rest, ok := bytes.CutPrefix(line, []byte("data: "))
			if !ok {
				continue
			}
			now := time.Now()
			var p server.EventPayload
			if json.Unmarshal(rest, &p) != nil {
				continue
			}
			s.mu.Lock()
			s.ids = append(s.ids, id)
			if p.PubNanos != 0 { // a backlog frame has no publish instant
				s.out = append(s.out, reqSample{kind: kindDeliver, at: now.Sub(s.t0),
					lat: time.Duration(now.UnixNano() - p.PubNanos), ok: true, sess: sess})
			}
			s.mu.Unlock()
		}
	}()
	return s
}

// stop closes the stream, waits for the reader and folds what it saw
// into log.
func (s *subscriber) stop(log *clientLog) {
	if s == nil {
		return
	}
	s.body.Close()
	<-s.done
	log.samples = append(log.samples, s.out...)
	s.sess.eventIDs = s.ids
}
