package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/loadgen"
	"repro/internal/server"
)

// Serial traced run. One client, fixed work, run once untraced and once
// traced on the in-process stack. Because one request is in flight at a
// time, every span between a request's start and end belongs to it, and
// the count metrics repeat exactly.

// serialRequests is the fixed work of a serial run: the first 400
// requests of client 0's programs (one whole 72-op session on
// serve-large, whatever its length).
const (
	serialRequests      = 400
	serialRequestsShort = 60
)

// serialResult is what one serial run leaves behind.
type serialResult struct {
	samples  []reqSample
	sessions []*sessionRec
	wall     time.Duration
	ops      int // design operations acknowledged
	stats    server.Stats
	lag      int64
	redirs   float64
	spans    []span // resolved; nil when untraced
	counts   *layerCounts
	spec     string
}

// runSerial plays the fixed work against a fresh in-process stack.
func runSerial(w *workload, tmp string, seed int64, traced, short bool) (*serialResult, error) {
	var rec *spanRec
	if traced {
		rec = newSpanRec()
	}
	st, err := buildStack(w.Stack, tmp, rec)
	if err != nil {
		return nil, err
	}
	defer st.shutdown()
	st.counts = layerCounts{} // set-up wrote the data dir's metadata; count requests only
	progs, spec, err := buildPrograms(w, seed, clientCount(), short)
	if err != nil {
		return nil, err
	}
	budget := serialRequests
	if short {
		budget = serialRequestsShort
	}
	if w.Name == "serve-large" {
		budget = len(progs[0][0].Steps)
		if short {
			budget = 10
		}
	}
	httpTarget := newHTTPTarget(st.base)
	var target loadgen.Target = httpTarget
	if traced {
		target = &spanTarget{HTTPTarget: httpTarget, rec: rec}
	}
	log := &clientLog{t0: time.Now()}
	cl := &client{target: target, log: log}
	stop := func() bool { return log.requests >= budget }
	start := time.Now()
	if w.OpenLoop {
		sub := func(sess *sessionRec) *subscriber { return startSubscriber(httpTarget, sess, log.t0) }
		cl.runWatch(progs[0], watchCycle, start, stop, sub)
	} else {
		cl.runClosed(progs[0], stop)
	}
	res := &serialResult{samples: log.samples, sessions: log.sessions, wall: time.Since(start),
		stats: st.srv.Stats(), counts: &st.counts, spec: spec}
	for _, s := range log.samples {
		res.ops += s.nops
	}
	if st.rep != nil {
		for i := 0; i < server.DefaultShards; i++ {
			res.lag += st.rep.ShardStatus(i).LagRecords
		}
	}
	if res.redirs, err = clusterRedirects(st.proxy); err != nil {
		return nil, err
	}
	if traced {
		for _, r := range st.shardRec {
			if d := r.Counters().Dropped; d > 0 {
				return nil, fmt.Errorf("shard recorder dropped %d events: the spans would have holes", d)
			}
			rec.addEngineEvents(r)
		}
		res.spans = resolveSpans(rec.spans, spanRequest)
	}
	return res, nil
}

// msQuantile is the quantile of one request kind's latencies. A serial
// run is shorter than a window, so the window rule yields the whole-run
// quantile.
func (r *serialResult) msQuantile(kind int, q float64) (float64, int) {
	var ms []timed
	for _, s := range r.samples {
		if s.kind == kind && s.ok {
			ms = append(ms, timed{lat: s.lat.Seconds() * 1e3})
		}
	}
	return windowQuantile(ms, windowLen, q)
}

// tracedOut is what the traced phase of one workload leaves besides the
// per-layer metrics.
type tracedOut struct {
	spans     []span
	attempted int
	failed    int
	notes     []string
	// ledger is the share of client-observed ops request time each
	// stage's self time takes: the latency ledger's raw column.
	ledger map[string]float64
}

// runServeTraced runs the untraced and traced serial runs of a serving
// workload and fills the per-layer metrics they produce into m.
func runServeTraced(cfg *config, w *workload, m metricSet) (*tracedOut, error) {
	out := &tracedOut{ledger: map[string]float64{}}
	if w.OpenLoop {
		awake, err := keepAwake(cfg.self)
		if err != nil {
			return nil, err
		}
		defer awake.stop()
	}
	plain, err := runSerial(w, cfg.tmp, cfg.seed, false, cfg.short)
	if err != nil {
		return nil, err
	}
	traced, err := runSerial(w, cfg.tmp, cfg.seed, true, cfg.short)
	if err != nil {
		return nil, err
	}
	out.spans = traced.spans
	for _, r := range []*serialResult{plain, traced} {
		bad, _, err := checkSessions(r.spec, r.sessions)
		if err != nil {
			return nil, err
		}
		for s, why := range bad {
			out.notes = append(out.notes, fmt.Sprintf("session %s: %s", s.id, why))
		}
		for _, s := range r.samples {
			if s.kind == kindDeliver {
				continue
			}
			out.attempted++
			if _, rejected := bad[s.sess]; !s.ok || rejected {
				out.failed++
			}
		}
	}

	// Client-observed latencies only some workloads have, from the
	// untraced run.
	setQ := func(name string, kind int, q float64) {
		if v, n := plain.msQuantile(kind, q); n > 0 {
			m.set(perLayer, name, v, n)
		}
	}
	setQ("loadgen.ops_p99_ms", kindOps, 0.99)
	setQ("loadgen.create_p50_ms", kindCreate, 0.50)
	setQ("loadgen.state_p50_ms", kindState, 0.50)
	setQ("loadgen.state_p99_ms", kindState, 0.99)
	setQ("loadgen.deliver_p50_ms", kindDeliver, 0.50)
	setQ("loadgen.deliver_p99_ms", kindDeliver, 0.99)
	if w.OpenLoop {
		var late []float64
		for _, s := range plain.samples {
			if s.kind != kindDeliver {
				late = append(late, s.late.Seconds()*1e3)
			}
		}
		sort.Float64s(late)
		m.set(perLayer, "loadgen.late_p99_ms", quantile(late, 0.99), len(late))
	}
	p50u, _ := plain.msQuantile(kindOps, 0.50)
	p50t, n := traced.msQuantile(kindOps, 0.50)
	if p50u > 0 {
		m.set(perLayer, "trace.overhead_frac", (p50t-p50u)/p50u, n)
	}

	// Gauges the server keeps itself.
	var hits, misses, rejected, rotations, delivered, dropped uint64
	for _, sh := range plain.stats.Shards {
		hits += sh.StateHits
		misses += sh.StateMisses
		rejected += sh.Rejected
		rotations += sh.Rotations
		delivered += sh.NotifyDelivered
		dropped += sh.NotifyDropped
	}
	if hits+misses > 0 {
		m.set(perLayer, "server.state_hit_frac", float64(hits)/float64(hits+misses), int(hits+misses))
	}
	m.set(perLayer, "server.rejected", float64(rejected), 0)
	m.set(perLayer, "wal.rotations", float64(rotations), 0)
	if delivered+dropped > 0 {
		m.set(perLayer, "notify.dropped_frac", float64(dropped)/float64(delivered+dropped), int(delivered+dropped))
	}
	m.set(perLayer, "replica.lag_records", float64(plain.lag), 0)
	m.set(perLayer, "cluster.redirects", plain.redirs, 0)

	// Span-derived numbers, per ops request: what ops_p50_ms is made of.
	for what, n := range misnested(traced.spans) {
		out.notes = append(out.notes, fmt.Sprintf("%d spans misnested: %s", n, what))
		out.failed += n
	}
	ts := summarize(traced.spans, spanRequest)
	for name, self := range ts.OpsSelfNanos {
		out.ledger[name] = float64(self) / float64(ts.OpsDurNanos[spanRequest])
	}
	perReq := func(nanos int64) float64 {
		if ts.OpsRequests == 0 {
			return 0
		}
		return float64(nanos) / 1e3 / float64(ts.OpsRequests)
	}
	m.set(perLayer, "loadgen.transport_us", perReq(ts.OpsSelfNanos[spanRequest]), ts.OpsRequests)
	m.set(perLayer, "server.self_us", perReq(ts.OpsSelfNanos[spanServerHTTP]), ts.OpsRequests)
	m.set(perLayer, "cluster.proxy_self_us", perReq(ts.OpsSelfNanos[spanProxy]), ts.OpsRequests)
	var hop int64
	if ts.Count[spanProxy] > 0 {
		hop = ts.OpsDurNanos[spanProxy] - ts.OpsDurNanos[spanServerHTTP]
	}
	m.set(perLayer, "cluster.hop_us", perReq(hop), ts.OpsRequests)
	m.set(perLayer, "wal.write_us", perReq(ts.OpsDurNanos[spanWALWrite]), ts.OpsRequests)
	m.set(perLayer, "wal.fsync_us", perReq(ts.OpsDurNanos[spanWALFsync]), ts.OpsRequests)
	m.set(perLayer, "replica.ship_us", perReq(ts.OpsDurNanos[spanShip]), ts.OpsRequests)
	m.set(perLayer, "replica.ship_self_us", perReq(ts.OpsDurNanos[spanShip]-ts.OpsDurNanos[spanFollowerAppend]), ts.OpsRequests)
	m.set(perLayer, "replica.follower_append_us", perReq(ts.OpsDurNanos[spanFollowerAppend]), ts.OpsRequests)
	m.set(perLayer, "replica.follower_fsync_us", perReq(ts.OpsDurNanos[spanFollowerFsync]), ts.OpsRequests)
	if traced.ops > 0 {
		ops := float64(traced.ops)
		m.set(perLayer, "wal.fsyncs_per_op", float64(traced.counts.walFsyncs.Load())/ops, 0)
		m.set(perLayer, "wal.bytes_per_op", float64(traced.counts.walBytes.Load())/ops, 0)
		m.set(perLayer, "replica.ships_per_op", float64(traced.counts.ships.Load())/ops, 0)
		m.set(perLayer, "replica.bytes_per_op", float64(traced.counts.shipBytes.Load())/ops, 0)
	}
	if traced.wall > 0 {
		busy := ts.DurNanos[spanWALWrite] + ts.DurNanos[spanWALFsync]
		m.set(perLayer, "wal.busy_frac", float64(busy)/float64(traced.wall.Nanoseconds()), 0)
	}
	if ts.RootNanos > 0 {
		m.set(perLayer, "trace.apply_share", float64(ts.DurNanos[spanApply])/float64(ts.RootNanos), ts.Requests)
		var durable int64
		for name, self := range ts.SelfNanos {
			switch name {
			case spanWALWrite, spanWALFsync, spanShip, spanFollowerAppend, spanFollowerFsync, spanProxy, spanUpstream:
				durable += self
			}
		}
		m.set(perLayer, "trace.durable_share", float64(durable)/float64(ts.RootNanos), ts.Requests)
	}
	return out, nil
}
