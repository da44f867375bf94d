package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultfs"
	"repro/internal/loadgen"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wal"
)

// In-process stack for the serial traced run: the same layers the child
// processes run, assembled through the public constructors, with a span
// wrapper at every injection point the program already exposes. With a
// nil recorder no wrapper is installed — that is the untraced run.

// layerCounts counts work at the wrapped boundaries.
type layerCounts struct {
	walWrites, walBytes, walFsyncs atomic.Int64
	ships, shipBytes               atomic.Int64
}

// stack is one assembled serving stack.
type stack struct {
	base     string // URL the client talks to
	srv      *server.Server
	rep      *replica.Replicator
	proxy    http.Handler
	shardRec []*trace.Recorder
	counts   layerCounts
	closers  []func()
}

// shutdown stops everything the stack started, in reverse order.
func (st *stack) shutdown() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
	st.closers = nil
}

// serveHTTP serves h on a fresh loopback listener.
func (st *stack) serveHTTP(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := server.NewHTTPServer(ln.Addr().String(), h)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln)
	}()
	st.closers = append(st.closers, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if hs.Shutdown(ctx) != nil {
			_ = hs.Close()
		}
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// buildStack assembles the stack of a workload. rec is nil for the
// untraced run.
func buildStack(kind, tmp string, rec *spanRec) (*stack, error) {
	st := &stack{}
	opts := server.Options{}
	if rec != nil {
		st.shardRec = make([]*trace.Recorder, server.DefaultShards)
		for i := range st.shardRec {
			// One 72-op session on sparse:1000 emits 33000 events, mostly
			// notifications, into one shard's ring.
			st.shardRec[i] = trace.New(trace.Options{RingSize: 1 << 16})
		}
		opts.ShardRecorder = func(shard int) *trace.Recorder { return st.shardRec[shard] }
		st.closers = append(st.closers, func() {
			for _, r := range st.shardRec {
				_ = r.Close()
			}
		})
	}
	ok := false
	defer func() {
		if !ok {
			st.shutdown()
		}
	}()
	if kind == "durable" {
		dirL, err := os.MkdirTemp(tmp, "leader-")
		if err != nil {
			return nil, err
		}
		st.closers = append(st.closers, func() { _ = os.RemoveAll(dirL) })
		dirF, err := os.MkdirTemp(tmp, "follower-")
		if err != nil {
			return nil, err
		}
		st.closers = append(st.closers, func() { _ = os.RemoveAll(dirF) })

		var leaderFS, followerFS faultfs.FS = faultfs.OS{}, faultfs.OS{}
		if rec != nil {
			leaderFS = &spanFS{FS: leaderFS, rec: rec, write: spanWALWrite, sync: spanWALFsync, counts: &st.counts}
			followerFS = &spanFS{FS: followerFS, rec: rec, sync: spanFollowerFsync}
		}
		fol, err := replica.NewFollower(replica.FollowerOptions{Dir: dirF, FS: followerFS, Shards: server.DefaultShards})
		if err != nil {
			return nil, err
		}
		var peer replica.Peer = fol
		if rec != nil {
			peer = &spanPeer{Peer: fol, rec: rec}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		served := make(chan struct{})
		go func() {
			defer close(served)
			_ = replica.Serve(ln, peer)
		}()
		dial := replica.Dial(ln.Addr().String())
		st.closers = append(st.closers, func() {
			_ = dial.Close()
			_ = ln.Close()
			<-served
		})
		st.rep, err = replica.NewReplicator(replica.ReplicatorOptions{
			Peer: dial, FS: leaderFS, DataDir: dirL, Shards: server.DefaultShards, Quorum: true,
		})
		if err != nil {
			return nil, err
		}
		opts.DataDir, opts.Fsync, opts.FS = dirL, wal.SyncAlways, leaderFS
		opts.Repl = st.rep
		if rec != nil {
			opts.Repl = &spanShipper{Shipper: st.rep, rec: rec, counts: &st.counts}
		}
		rep := st.rep
		opts.ReplStatus = func(shard int) server.ReplStatus {
			s := rep.ShardStatus(shard)
			return server.ReplStatus{Role: "leader", Quorum: s.Quorum, InSync: s.InSync,
				LagRecords: s.LagRecords, LagBytes: s.LagBytes}
		}
	}
	srv, err := server.Open(opts)
	if err != nil {
		return nil, err
	}
	st.srv = srv
	st.closers = append(st.closers, func() { srv.Drain() })
	if st.rep != nil {
		if err := st.rep.CatchUpAll(); err != nil {
			return nil, fmt.Errorf("initial catch-up: %w", err)
		}
	}
	h := srv.Handler()
	if rec != nil {
		h = spanHandler(rec, spanServerHTTP, h)
	}
	if st.base, err = st.serveHTTP(h); err != nil {
		return nil, err
	}
	if kind == "durable" {
		table := &cluster.Table{Epoch: 1, Seed: 1, Pairs: []cluster.Pair{{Name: "a", Bases: []string{st.base}}}}
		hc := &http.Client{}
		if rec != nil {
			hc.Transport = &spanTransport{inner: http.DefaultTransport, rec: rec}
		}
		proxy, err := cluster.NewProxy(table, cluster.ProxyOptions{Client: hc})
		if err != nil {
			return nil, err
		}
		st.proxy = proxy.Handler()
		ph := st.proxy
		if rec != nil {
			ph = spanHandler(rec, spanProxy, ph)
		}
		if st.base, err = st.serveHTTP(ph); err != nil {
			return nil, err
		}
	}
	if err := waitReady(st.base, 10*time.Second); err != nil {
		return nil, err
	}
	ok = true
	return st, nil
}

// spanHandler records one span per request served by h. Probes are not
// part of any request, and an event stream outlives the requests beside
// it; both stay out of the trace.
func spanHandler(rec *spanRec, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/sessions") || strings.HasSuffix(r.URL.Path, "/events") {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		rec.add(name, t0, time.Now())
	})
}

// spanTransport records the proxy's upstream round trip: from sending
// the request to the last byte of the response body.
type spanTransport struct {
	inner http.RoundTripper
	rec   *spanRec
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !strings.HasPrefix(req.URL.Path, "/sessions") || strings.HasSuffix(req.URL.Path, "/events") {
		return t.inner.RoundTrip(req)
	}
	t0 := time.Now()
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		t.rec.add(spanUpstream, t0, time.Now())
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, t0: t0}
	return resp, nil
}

// spanBody ends the upstream span when the body is drained or closed.
type spanBody struct {
	io.ReadCloser
	rec  *spanRec
	t0   time.Time
	done bool
}

func (b *spanBody) finish() {
	if !b.done {
		b.done = true
		b.rec.add(spanUpstream, b.t0, time.Now())
	}
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// spanFS times the writes and fsyncs of the files opened through it.
type spanFS struct {
	faultfs.FS
	rec         *spanRec
	write, sync string // span names; "" records nothing
	counts      *layerCounts
}

func (f *spanFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	h, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &spanFile{File: h, fs: f}, nil
}

func (f *spanFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := f.FS.SyncDir(dir)
	f.synced(t0)
	return err
}

func (f *spanFS) synced(t0 time.Time) {
	if f.sync != "" {
		f.rec.add(f.sync, t0, time.Now())
	}
	if f.counts != nil {
		f.counts.walFsyncs.Add(1)
	}
}

type spanFile struct {
	faultfs.File
	fs *spanFS
}

func (h *spanFile) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := h.File.Write(b)
	if h.fs.write != "" {
		h.fs.rec.add(h.fs.write, t0, time.Now())
	}
	if h.fs.counts != nil {
		h.fs.counts.walWrites.Add(1)
		h.fs.counts.walBytes.Add(int64(n))
	}
	return n, err
}

func (h *spanFile) Sync() error {
	t0 := time.Now()
	err := h.File.Sync()
	h.fs.synced(t0)
	return err
}

// spanShipper times the leader's ship of one WAL mutation.
type spanShipper struct {
	server.Shipper
	rec    *spanRec
	counts *layerCounts
}

func (s *spanShipper) Ship(shard int, ev wal.ShipEvent) error {
	t0 := time.Now()
	err := s.Shipper.Ship(shard, ev)
	s.rec.add(spanShip, t0, time.Now())
	s.counts.ships.Add(1)
	s.counts.shipBytes.Add(int64(len(ev.Frame)))
	return err
}

// spanPeer times the follower's append of one shipped frame.
type spanPeer struct {
	replica.Peer
	rec *spanRec
}

func (p *spanPeer) Append(shard, seg int, off int64, frame []byte) (replica.Pos, error) {
	t0 := time.Now()
	pos, err := p.Peer.Append(shard, seg, off, frame)
	p.rec.add(spanFollowerAppend, t0, time.Now())
	return pos, err
}

// spanTarget records the root span of every request the client sends.
type spanTarget struct {
	*loadgen.HTTPTarget
	rec *spanRec
}

func (t *spanTarget) Do(method, path string, body []byte) (*loadgen.Response, error) {
	t0 := time.Now()
	resp, err := t.HTTPTarget.Do(method, path, body)
	t.rec.addKind(spanRequest, requestKind(method, path), t0, time.Now())
	return resp, err
}

// requestKind names a request the way the client's samples do.
func requestKind(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/sessions":
		return "create"
	case strings.HasSuffix(path, "/ops"):
		return "ops"
	case strings.HasSuffix(path, "/state"):
		return "state"
	case method == http.MethodDelete:
		return "delete"
	}
	return "other"
}

// clusterRedirects reads the proxy's redirect counter off its stats
// route (the counter has no exported accessor).
func clusterRedirects(proxy http.Handler) (float64, error) {
	if proxy == nil {
		return 0, nil
	}
	resp, err := (&loadgen.HandlerTarget{Handler: proxy}).Do(http.MethodGet, "/cluster/stats", nil)
	if err != nil {
		return 0, err
	}
	var stats struct {
		Redirects float64 `json:"redirects"`
	}
	if err := json.Unmarshal(resp.Body, &stats); err != nil {
		return 0, fmt.Errorf("cluster/stats: %w", err)
	}
	return stats.Redirects, nil
}
