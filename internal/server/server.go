// Package server hosts many concurrent design sessions behind a
// sharded event-loop architecture, the serving-side counterpart of the
// paper's Minerva III DPM server: each shard owns a disjoint set of
// sessions (one DPM + notification bus + Result per session) and runs
// them on a single goroutine, so per-session state needs no locking and
// every operation batch is applied atomically with the same
// budget-before-δ invariant as the simulation engines (teamsim.Session).
//
// Shards communicate through bounded mailboxes: a full mailbox rejects
// the request with ErrBusy (backpressure, surfaced as HTTP 429) instead
// of queueing unboundedly. Idle sessions are evicted on a timer; their
// final metrics are folded into the shard totals, so eviction never
// loses accounting. Drain stops intake, executes every already-enqueued
// task (no acknowledged operation is lost), folds live sessions into
// per-shard summaries, and closes each shard's trace with a run-end
// event carrying the aggregated totals — a drained shard trace passes
// trace.ValidateJSONL's reconciliation.
package server

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/constraint"
	"repro/internal/dddl"
	"repro/internal/dpm"
	"repro/internal/faultfs"
	"repro/internal/notify"
	"repro/internal/teamsim"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/wal"
)

// Defaults.
const (
	// DefaultShards is the shard count when Options.Shards is 0.
	DefaultShards = 4
	// DefaultMailboxSize bounds each shard's pending-task queue.
	DefaultMailboxSize = 64
)

// Request-level errors, mapped to HTTP statuses by the handler layer.
var (
	// ErrBusy reports a full shard mailbox (backpressure; retryable).
	ErrBusy = errors.New("server: shard mailbox full")
	// ErrDraining reports a server that has stopped intake.
	ErrDraining = errors.New("server: draining")
	// ErrUnknownSession reports a session id that resolves to nothing.
	ErrUnknownSession = errors.New("server: unknown session")
	// ErrBudget reports an op batch larger than the session's remaining
	// operation budget. Nothing was applied.
	ErrBudget = errors.New("server: operation budget exceeded")
	// ErrInvalid reports a malformed or unappliable request. Nothing was
	// applied.
	ErrInvalid = errors.New("server: invalid request")
	// ErrKeyConflict reports an idempotency key reused with a
	// byte-different batch body (wire-canonical form). The cached ack is
	// not returned — acking would silently drop whichever batch the
	// client meant to send — and nothing is applied. Surfaced as HTTP
	// 422.
	ErrKeyConflict = errors.New("server: idempotency key reused with a different batch")
	// ErrMoved reports a session that migrated to another pair: the
	// request reached the old owner, which answers with the forwarding
	// address recorded by the migration. Surfaced as HTTP 307 with a
	// Location header, so an idempotent retry lands on the new owner.
	ErrMoved = errors.New("server: session moved")
	// ErrMigrating reports a session frozen mid-migration: its image has
	// been exported but ownership has not flipped yet. Retryable —
	// surfaced as HTTP 503 with Retry-After, the same taxonomy as a
	// transient storage stall.
	ErrMigrating = errors.New("server: session migrating")
)

// Options parameterize a Server.
type Options struct {
	// Shards is the number of session shards; 0 means DefaultShards.
	Shards int
	// MailboxSize bounds each shard's pending requests; 0 means
	// DefaultMailboxSize. A full mailbox rejects with ErrBusy.
	MailboxSize int
	// MaxOps is the per-session operation budget ceiling; 0 means
	// teamsim.DefaultMaxOps. Session creates may request less, never
	// more.
	MaxOps int
	// IdleTimeout evicts sessions untouched for this long; 0 disables
	// eviction.
	IdleTimeout time.Duration
	// SweepEvery is the eviction sweep period; 0 means IdleTimeout/4.
	SweepEvery time.Duration
	// ShardRecorder, when non-nil, supplies one trace recorder per
	// shard. The shard emits a run-start per created session, per-op
	// events via the engine instrumentation, an evict event per
	// eviction, and one aggregated run-end at drain.
	ShardRecorder func(shard int) *trace.Recorder

	// DataDir, when non-empty, makes sessions durable: every shard
	// write-ahead-logs its accepted transitions under
	// DataDir/shard-<i>/ and recovers them on Open by deterministic
	// replay. Idle eviction becomes persist-then-evict with lazy
	// restore instead of data loss.
	DataDir string
	// Fsync selects the WAL durability discipline (wal.SyncAlways when
	// zero: fsync before every acknowledgement).
	Fsync wal.SyncPolicy
	// SyncEvery is the group-commit period under wal.SyncInterval; 0
	// means DefaultSyncEvery.
	SyncEvery time.Duration
	// SegmentBytes rotates (and snapshot-compacts) a shard's WAL
	// segment past this size; 0 means wal.DefaultSegmentBytes.
	SegmentBytes int64
	// FS is the filesystem under the WAL; nil means the real one. The
	// chaos suite injects faults here.
	FS faultfs.FS

	// Repl, when non-nil, receives every shard WAL mutation in commit
	// order (leader→follower replication; see Shipper). Requires
	// DataDir.
	Repl Shipper
	// ReplStatus, when non-nil, reports per-shard replication state on
	// GET /readyz. Independent of Repl so a follower-side host can
	// report its role through the same taxonomy. A quorum leader with
	// an out-of-sync peer reports 503 (writes would stall on catch-up).
	ReplStatus func(shard int) ReplStatus

	// Heartbeat is the SSE keep-alive comment period on
	// GET /sessions/{id}/events; 0 means DefaultHeartbeat.
	Heartbeat time.Duration
	// IdemCap bounds the per-session idempotency-ack cache: at most this
	// many cached acknowledgements are retained (LRU), while every key
	// ever used keeps its body hash so conflicting reuse is still
	// rejected. 0 means DefaultIdemCap; negative means unlimited (the
	// pre-cap behavior).
	IdemCap int

	// Clock supplies every time reading and ticker in the serving stack
	// (idle sweeps, group-commit syncs, SSE heartbeats, latency
	// accounting); nil means the real clock. The deterministic
	// simulation injects a vclock.Manual here — whose tickers are inert,
	// so the harness drives timer work explicitly via Sweep and
	// SyncWALs.
	Clock vclock.Clock

	// nowFn overrides just the now-reading (tests); nil means Clock.Now.
	nowFn func() time.Time
}

// DefaultSyncEvery is the SyncInterval group-commit period when unset.
const DefaultSyncEvery = 25 * time.Millisecond

// Totals aggregates the reconciliation metrics across sessions.
type Totals struct {
	Operations    int   `json:"operations"`
	Evaluations   int64 `json:"evaluations"`
	Spins         int   `json:"spins"`
	Notifications int   `json:"notifications"`
}

func (t *Totals) add(s SessionSummary) {
	t.Operations += s.Operations
	t.Evaluations += s.Evaluations
	t.Spins += s.Spins
	t.Notifications += s.Notifications
}

// SessionSummary is the final accounting of one retired session.
type SessionSummary struct {
	ID            string `json:"id"`
	Scenario      string `json:"scenario"`
	Mode          string `json:"mode"`
	Evicted       bool   `json:"evicted,omitempty"`
	Deleted       bool   `json:"deleted,omitempty"`
	Completed     bool   `json:"completed,omitempty"`
	Operations    int    `json:"operations"`
	Evaluations   int64  `json:"evaluations"`
	Spins         int    `json:"spins"`
	Notifications int    `json:"notifications"`
}

// ShardSummary is one shard's final accounting, returned by Drain.
type ShardSummary struct {
	Shard int `json:"shard"`
	// Sessions lists every session the shard ever retired (deleted,
	// evicted, or live at drain), in retirement order.
	Sessions  []SessionSummary `json:"sessions,omitempty"`
	Totals    Totals           `json:"totals"`
	Evictions int              `json:"evictions"`
}

// Server hosts design sessions across shards.
type Server struct {
	opts     Options
	shards   []*shard
	seq      atomic.Uint64
	draining atomic.Bool
	lat      *latencySet
	// templates is the session-template cache all shards stamp from.
	templates *templateCache

	// subStop, once closed, ends every SSE stream and rejects new
	// subscriptions: the drain-aware shutdown signal for the fan-out
	// layer. Closed by StopSubscribers (Drain calls it first), so
	// long-lived event streams never hold up http.Server.Shutdown.
	subStop     chan struct{}
	subStopOnce sync.Once

	drainOnce sync.Once
	drainRes  []ShardSummary
}

// hostedSession is one live session owned by a shard.
type hostedSession struct {
	id       string
	scenario string
	sess     *teamsim.Session
	lastUsed time.Time
	// img is the session's durable image (create parameters + accepted
	// batch history); nil on a non-durable server.
	img *wal.SessionImage
	// idem caches client idempotency acknowledgements (bounded LRU):
	// a retried key returns the cached ack instead of double-applying —
	// provided the retry's batch body hashes identically (ErrKeyConflict
	// otherwise) and the ack is still cached (ErrAckEvicted otherwise:
	// fail closed, never silently re-apply).
	idem *idemCache

	// events is the session's notification log: every event its applied
	// transitions produced, in order. IDs are 1-based log positions —
	// deterministic across park/restore and crash recovery, because
	// replay regenerates the identical log — and double as SSE event ids
	// for Last-Event-ID resume.
	events []notify.Event
	// hub fans events out to live SSE subscribers; nil until the first
	// subscriber attaches, closed when the session retires or parks.
	hub *notify.Hub

	// gen counts accepted mutations (batch applies); the serialized
	// state snapshot is cached keyed by it, so GET /state between
	// mutations is a byte copy, not a re-serialization.
	gen      uint64
	cacheGen uint64
	cache    []byte
}

// task is one unit of work executed on a shard's event loop.
type task struct {
	fn   func()
	done chan struct{}
}

// shard owns a disjoint set of sessions; all access to them happens on
// the loop goroutine.
type shard struct {
	idx  int
	opts *Options
	rec  *trace.Recorder
	// seqNow reads the server's session-sequence counter; rotation
	// snapshots record it so the id high-water survives compaction.
	seqNow func() uint64
	// templates is the server's session-template cache (shared).
	templates *templateCache

	mu      sync.Mutex
	closed  bool
	mailbox chan task
	quit    chan struct{}
	done    chan struct{}
	killed  atomic.Bool

	// Loop-goroutine state.
	sessions map[string]*hostedSession
	parked   map[string]*parkedSession
	// migrating holds sessions frozen between BeginMigrate and
	// Complete/AbortMigrate: the image has been handed to the migration
	// orchestrator, so every request answers ErrMigrating until
	// ownership resolves (serving from the old copy could lose a batch
	// the new owner never sees).
	migrating map[string]*parkedSession
	// moved maps migrated-away session ids to their forwarding address
	// (wal.TypeMoved tombstones; survive restarts and snapshots).
	moved map[string]string
	// retired is the summary of every session the shard retired, in
	// retirement order, in chunks of retiredChunk (see fold); totals is
	// their sum.
	retired [][]SessionSummary
	totals  Totals
	summary ShardSummary
	wal     *wal.Log
	// segBase is the segment size right after the last rotation (or
	// open) — i.e. roughly the snapshot's own footprint. Rotation also
	// waits for the segment to double past it, so a snapshot larger
	// than the segment limit cannot trigger rotation on every append.
	segBase int64

	// hubStats aggregates live-subscriber delivery accounting across
	// every session hub the shard owns.
	hubStats notify.HubStats

	// Gauges, readable from any goroutine (expvar / Stats).
	nSessions   atomic.Int64
	nParked     atomic.Int64
	nMoved      atomic.Int64
	migrated    atomic.Uint64
	adopted     atomic.Uint64
	created     atomic.Uint64
	evicted     atomic.Uint64
	restored    atomic.Uint64
	deleted     atomic.Uint64
	rejected    atomic.Uint64
	walAppends  atomic.Uint64
	walBytes    atomic.Uint64
	rotations   atomic.Uint64
	walBroken   atomic.Bool
	stateHits   atomic.Uint64
	stateMisses atomic.Uint64
}

// New starts a server with opts.Shards event loops. It is the
// non-durable constructor kept for compatibility: with Options.DataDir
// set it panics on a recovery failure — durable callers use Open and
// handle the error.
func New(opts Options) *Server {
	s, err := Open(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Open starts a server, recovering every durable session from
// Options.DataDir when one is configured: each shard's WAL is scanned,
// torn tails are truncated, and the surviving records fold into session
// images that restore lazily (by deterministic replay) on first touch.
func Open(opts Options) (*Server, error) {
	if opts.Shards <= 0 {
		opts.Shards = DefaultShards
	}
	if opts.MailboxSize <= 0 {
		opts.MailboxSize = DefaultMailboxSize
	}
	if opts.MaxOps <= 0 {
		opts.MaxOps = teamsim.DefaultMaxOps
	}
	if opts.IdleTimeout > 0 && opts.SweepEvery <= 0 {
		opts.SweepEvery = opts.IdleTimeout / 4
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = DefaultSyncEvery
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = wal.DefaultSegmentBytes
	}
	if opts.FS == nil {
		opts.FS = faultfs.OS{}
	}
	if opts.Clock == nil {
		opts.Clock = vclock.System{}
	}
	if opts.nowFn == nil {
		opts.nowFn = opts.Clock.Now
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = DefaultHeartbeat
	}
	s := &Server{
		opts:      opts,
		lat:       newLatencySet(),
		subStop:   make(chan struct{}),
		templates: newTemplateCache(),
	}
	durable := opts.DataDir != ""
	if durable {
		if err := checkMeta(opts.FS, opts.DataDir, opts.Shards); err != nil {
			return nil, err
		}
	}
	var maxSeq uint64
	haveSeq := false
	for i := 0; i < opts.Shards; i++ {
		var rec *trace.Recorder
		if opts.ShardRecorder != nil {
			rec = opts.ShardRecorder(i)
		}
		sh := &shard{
			idx:       i,
			opts:      &s.opts,
			rec:       rec,
			seqNow:    s.seq.Load,
			templates: s.templates,
			mailbox:   make(chan task, opts.MailboxSize),
			quit:      make(chan struct{}),
			done:      make(chan struct{}),
			sessions:  map[string]*hostedSession{},
			parked:    map[string]*parkedSession{},
			migrating: map[string]*parkedSession{},
			moved:     map[string]string{},
		}
		if durable {
			seq, ok, err := sh.openShardWAL(opts.DataDir, opts.Fsync, opts.SegmentBytes, opts.FS)
			if err != nil {
				for _, prev := range s.shards {
					if prev.wal != nil {
						prev.wal.Close()
					}
				}
				return nil, err
			}
			if ok {
				haveSeq = true
				if seq > maxSeq {
					maxSeq = seq
				}
			}
		}
		s.shards = append(s.shards, sh)
	}
	if haveSeq {
		// Recovered ids embed the global sequence; resume past the
		// highest one so new sessions never collide.
		s.seq.Store(maxSeq + 1)
	}
	for _, sh := range s.shards {
		go sh.loop()
	}
	return s, nil
}

// Shards returns the configured shard count.
func (s *Server) Shards() int { return len(s.shards) }

// busyError is ErrBusy carrying the congestion observation that caused
// the rejection; the HTTP layer derives Retry-After from it.
type busyError struct {
	depth, capacity int
}

func (e *busyError) Error() string {
	return fmt.Sprintf("server: shard mailbox full (%d/%d)", e.depth, e.capacity)
}

// Is makes errors.Is(err, ErrBusy) hold for busyError values.
func (e *busyError) Is(target error) bool { return target == ErrBusy }

// RetrySeconds maps the observed congestion to a client backoff hint,
// clamped to [1,4]: 1s at the low end, 4s when the mailbox was entirely
// full. The clamp holds for the edge observations too — a zero-capacity
// mailbox (no depth signal) hints 1s, and a depth past capacity (racy
// reads mid-drain can over-report) still caps at 4s rather than telling
// clients to back off for longer than the scale was ever meant to span.
func (e *busyError) RetrySeconds() int {
	if e.capacity <= 0 || e.depth <= 0 {
		return 1
	}
	r := 1 + 3*e.depth/e.capacity
	if r > 4 {
		r = 4
	}
	return r
}

// submit runs fn on the shard's event loop and waits for it. The mutex
// orders submission against drain: once closed is set no new task can
// enter the mailbox, so the drain sweep that empties the mailbox sees
// every task whose submit succeeded.
func (sh *shard) submit(fn func()) error {
	t := task{fn: fn, done: make(chan struct{})}
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return ErrDraining
	}
	select {
	case sh.mailbox <- t:
		sh.mu.Unlock()
	default:
		depth := len(sh.mailbox)
		sh.mu.Unlock()
		sh.rejected.Add(1)
		return &busyError{depth: depth, capacity: cap(sh.mailbox)}
	}
	<-t.done
	return nil
}

// loop is the shard's event loop: one task at a time, periodic eviction
// sweeps, and a final drain pass that executes everything still queued
// before folding live sessions into the summary.
func (sh *shard) loop() {
	var sweepC <-chan time.Time
	if sh.opts.IdleTimeout > 0 {
		tick := sh.opts.Clock.NewTicker(sh.opts.SweepEvery)
		defer tick.Stop()
		sweepC = tick.C()
	}
	var syncC <-chan time.Time
	if sh.wal != nil && sh.opts.Fsync == wal.SyncInterval {
		// Group commit: acknowledged appends become durable at this
		// cadence (the SyncInterval trade-off).
		tick := sh.opts.Clock.NewTicker(sh.opts.SyncEvery)
		defer tick.Stop()
		syncC = tick.C()
	}
	for {
		select {
		case t := <-sh.mailbox:
			t.fn()
			close(t.done)
		case <-sweepC:
			sh.sweepNow()
		case <-syncC:
			if sh.wal.Sync() != nil {
				sh.walBroken.Store(true)
			}
		case <-sh.quit:
			for {
				select {
				case t := <-sh.mailbox:
					t.fn()
					close(t.done)
				default:
					if sh.killed.Load() {
						// Crash semantics: no final flush, fold, or WAL
						// close — the log keeps only the durability it
						// already earned.
						if sh.wal != nil {
							sh.wal.Abandon()
						}
					} else {
						sh.finalize()
					}
					close(sh.done)
					return
				}
			}
		}
	}
}

// now returns the shard clock reading.
func (sh *shard) now() time.Time { return sh.opts.nowFn() }

// retire finalizes a session, folds its metrics into the shard totals,
// and removes it from the live set. Loop goroutine only.
func (sh *shard) retire(hs *hostedSession, evicted, deleted bool) SessionSummary {
	if hs.hub != nil {
		hs.hub.Close()
		hs.hub = nil
	}
	res := hs.sess.Finish()
	sum := SessionSummary{
		ID:            hs.id,
		Scenario:      hs.scenario,
		Mode:          res.Mode.String(),
		Evicted:       evicted,
		Deleted:       deleted,
		Completed:     res.Completed,
		Operations:    res.Operations,
		Evaluations:   res.Evaluations,
		Spins:         res.Spins,
		Notifications: res.Notifications,
	}
	sh.fold(sum)
	delete(sh.sessions, hs.id)
	sh.nSessions.Store(int64(len(sh.sessions)))
	return sum
}

// retiredChunk is the capacity of one chunk of a shard's retired-session
// log. The log only grows; chunking it means growth never re-copies the
// summaries already recorded.
const retiredChunk = 256

// fold records a retired session's final accounting: appended to the
// shard's retired log and added to its totals. Every retirement —
// delete, eviction, drain, migration away, delete of a parked session —
// goes through here. Loop goroutine only.
func (sh *shard) fold(sum SessionSummary) {
	n := len(sh.retired)
	if n == 0 || len(sh.retired[n-1]) == retiredChunk {
		sh.retired = append(sh.retired, make([]SessionSummary, 0, retiredChunk))
		n++
	}
	sh.retired[n-1] = append(sh.retired[n-1], sum)
	sh.totals.add(sum)
}

// retiredSessions flattens the retired log in retirement order; nil when
// the shard retired nothing.
func (sh *shard) retiredSessions() []SessionSummary {
	n := len(sh.retired)
	if n == 0 {
		return nil
	}
	out := make([]SessionSummary, 0, (n-1)*retiredChunk+len(sh.retired[n-1]))
	for _, c := range sh.retired {
		out = append(out, c...)
	}
	return out
}

// sweepNow evicts every session idle past the timeout. On a durable
// shard eviction is persist-then-evict: the session parks (image kept,
// live engine dropped) and restores transparently on its next touch;
// without a WAL it retires for good (the pre-durability semantics).
// Loop goroutine only. Returns the number evicted.
func (sh *shard) sweepNow() int {
	if sh.opts.IdleTimeout <= 0 {
		return 0
	}
	now := sh.now()
	var ids []string
	for id, hs := range sh.sessions {
		if now.Sub(hs.lastUsed) >= sh.opts.IdleTimeout {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		hs := sh.sessions[id]
		if sh.wal != nil {
			sh.park(hs)
			continue
		}
		sum := sh.retire(hs, true, false)
		sh.evicted.Add(1)
		if sh.rec.Enabled() {
			sh.rec.Emit(trace.Event{
				Kind:          trace.KindEvict,
				Name:          sum.ID,
				Scenario:      sum.Scenario,
				Operations:    sum.Operations,
				Evaluations:   sum.Evaluations,
				Spins:         sum.Spins,
				Notifications: sum.Notifications,
			})
		}
	}
	return len(ids)
}

// finalize folds the sessions still live at drain into the summary and
// closes the shard trace with the aggregated run-end. Loop goroutine
// only, exactly once.
func (sh *shard) finalize() {
	ids := make([]string, 0, len(sh.sessions))
	for id := range sh.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		sh.retire(sh.sessions[id], false, false)
	}
	// Parked sessions stay durable on disk; their park-time summaries
	// fold into the totals so the drain accounting (and the trace
	// reconciliation) still sees every operation ever acknowledged.
	pids := make([]string, 0, len(sh.parked))
	for id := range sh.parked {
		pids = append(pids, id)
	}
	sort.Strings(pids)
	for _, id := range pids {
		sh.fold(sh.parked[id].sum)
		delete(sh.parked, id)
	}
	sh.nParked.Store(0)
	sh.summary = ShardSummary{
		Shard:     sh.idx,
		Sessions:  sh.retiredSessions(),
		Totals:    sh.totals,
		Evictions: int(sh.evicted.Load()),
	}
	if sh.rec.Enabled() {
		// One shard-level run-end carrying the totals of every session
		// that ever lived here: the stream's summed operation events
		// reconcile against exactly these numbers (trace.ValidateJSONL).
		sh.rec.Emit(trace.Event{
			Kind:          trace.KindRunEnd,
			Operations:    sh.totals.Operations,
			Evaluations:   sh.totals.Evaluations,
			Spins:         sh.totals.Spins,
			Notifications: sh.totals.Notifications,
		})
	}
	if sh.wal != nil {
		if sh.wal.Close() != nil {
			sh.walBroken.Store(true)
		}
	}
}

// shardFor resolves a session id to its shard. Server-minted ids
// ("s<shard>-<seq>") carry their shard index; externally-minted ids
// (cluster routing mints "c<n>" so ids stay unique across pairs — see
// internal/cluster) hash onto a shard, so the same id maps to the same
// shard on every pair regardless of shard-count history.
func (s *Server) shardFor(id string) (*shard, error) {
	if id == "" {
		return nil, ErrUnknownSession
	}
	if rest, ok := strings.CutPrefix(id, "s"); ok {
		idxStr, _, ok := strings.Cut(rest, "-")
		if !ok {
			return nil, ErrUnknownSession
		}
		idx, err := strconv.Atoi(idxStr)
		if err != nil || idx < 0 || idx >= len(s.shards) {
			return nil, ErrUnknownSession
		}
		return s.shards[idx], nil
	}
	if !strings.HasPrefix(id, "c") {
		return nil, ErrUnknownSession
	}
	return s.shards[int(hashID(id)%uint32(len(s.shards)))], nil
}

// hashID is the stable external-id hash (FNV-1a, 32-bit): the same
// function on every pair, so misrouted requests still land on the shard
// whose maps hold the moved tombstone.
func hashID(id string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return h
}

// CreateSpec names what a session is created from. For durable servers
// the distinction matters: the WAL create record stores the built-in
// scenario name or the client's exact DDDL source, so recovery resolves
// the scenario through precisely the path creation used.
type CreateSpec struct {
	// ID, when non-empty, is an externally-minted session id (cluster
	// routing mints ids so they stay unique across pairs). It must start
	// with "c" — the external namespace, disjoint from server-minted
	// "s<shard>-<seq>" ids — and places the session on the shard
	// hashID selects. Empty means the server mints the id itself.
	ID string
	// Scenario is the pre-parsed scenario; when nil it is resolved from
	// Name or Source.
	Scenario *dddl.Scenario
	// Name is the built-in scenario name ("sensor", "receiver",
	// "simplified") when the session was created by name.
	Name string
	// Source is the raw DDDL source when the session was created from
	// source.
	Source string
	// Mode is the transition mode.
	Mode dpm.Mode
	// MaxOps is the requested budget (0 or over-ceiling resolves to the
	// server ceiling).
	MaxOps int
}

// Create builds a session from the scenario and places it on a shard
// (round-robin). Compatibility wrapper over CreateSession; on a durable
// server the scenario is persisted as its canonical DDDL rendering.
func (s *Server) Create(scn *dddl.Scenario, mode dpm.Mode, maxOps int) (*CreateResponse, error) {
	return s.CreateSession(CreateSpec{Scenario: scn, Mode: mode, MaxOps: maxOps})
}

// CreateSession builds a session and places it on a shard
// (round-robin). A session created by name or from source is stamped
// from the server's template for that scenario and mode, built on first
// use; a programmatic scenario is built uncached. Either happens on the
// caller's goroutine; only the WAL create record and the map insert run
// on the shard loop, so the create is logged before it is acknowledged.
func (s *Server) CreateSession(spec CreateSpec) (*CreateResponse, error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	maxOps := spec.MaxOps
	if maxOps <= 0 || maxOps > s.opts.MaxOps {
		maxOps = s.opts.MaxOps
	}
	mode := spec.Mode
	var scn *dddl.Scenario
	var sess *teamsim.Session
	var err error
	if spec.Scenario != nil {
		// A programmatic scenario has no cache key: build it uncached.
		scn = spec.Scenario
		sess, err = teamsim.NewSession(scn, mode, maxOps, constraint.PropagateOptions{})
	} else {
		var tmpl *teamsim.Template
		switch {
		case spec.Name != "":
			tmpl, err = s.templates.byName(spec.Name, mode)
		case spec.Source != "":
			tmpl, err = s.templates.bySource(spec.Source, mode)
		default:
			return nil, fmt.Errorf("%w: scenario or source is required", ErrInvalid)
		}
		if err == nil {
			scn = tmpl.Scenario()
			sess = tmpl.NewSession(maxOps)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	var sh *shard
	var id string
	if spec.ID != "" {
		if err := ValidateExternalID(spec.ID); err != nil {
			return nil, err
		}
		id = spec.ID
		if sh, err = s.shardFor(id); err != nil {
			return nil, fmt.Errorf("%w: unroutable session id %q", ErrInvalid, id)
		}
	} else {
		seq := s.seq.Add(1) - 1
		sh = s.shards[int(seq%uint64(len(s.shards)))]
		id = fmt.Sprintf("s%d-%d", sh.idx, seq)
	}
	hs := &hostedSession{
		id:       id,
		scenario: scn.Name,
		sess:     sess,
		idem:     newIdemCache(s.opts.IdemCap),
	}
	sh.attachEvents(hs)
	if s.opts.DataDir != "" {
		src := spec.Source
		if spec.Name == "" && src == "" {
			// Programmatic create: persist the canonical rendering (the
			// Format/Parse round-trip property makes it equivalent).
			src = scn.Format()
		}
		hs.img = &wal.SessionImage{
			ID:       hs.id,
			Scenario: spec.Name,
			Source:   src,
			Mode:     mode.String(),
			MaxOps:   maxOps,
		}
	}
	var resp *CreateResponse
	var aerr error
	err = sh.submit(func() {
		if spec.ID != "" {
			// Externally-minted ids can collide (a client retrying a
			// create, or a mis-minting router); server-minted ones cannot.
			if _, ok := sh.sessions[hs.id]; ok {
				aerr = fmt.Errorf("%w: session id %q already exists", ErrInvalid, hs.id)
			} else if _, ok := sh.parked[hs.id]; ok {
				aerr = fmt.Errorf("%w: session id %q already exists", ErrInvalid, hs.id)
			} else if _, ok := sh.migrating[hs.id]; ok {
				aerr = fmt.Errorf("%w: session %q", ErrMigrating, hs.id)
			} else if loc, ok := sh.moved[hs.id]; ok {
				aerr = &MovedError{ID: hs.id, Location: loc}
			}
			if aerr != nil {
				return
			}
		}
		if hs.img != nil {
			aerr = sh.appendWAL(&wal.Record{
				Type:     wal.TypeCreate,
				Session:  hs.id,
				Scenario: hs.img.Scenario,
				Source:   hs.img.Source,
				Mode:     hs.img.Mode,
				MaxOps:   hs.img.MaxOps,
			})
			if aerr != nil {
				return
			}
		}
		sess.SetTracer(sh.rec)
		if sh.rec.Enabled() {
			sh.rec.Emit(trace.Event{Kind: trace.KindRunStart,
				Name: hs.id, Scenario: hs.scenario, Mode: mode.String()})
		}
		hs.lastUsed = sh.now()
		sh.sessions[hs.id] = hs
		sh.nSessions.Store(int64(len(sh.sessions)))
		sh.created.Add(1)
		sh.maybeRotate()
		resp = &CreateResponse{
			ID:         hs.id,
			Scenario:   hs.scenario,
			Mode:       mode.String(),
			MaxOps:     maxOps,
			Shard:      sh.idx,
			Stage:      sess.D.Stage(),
			Violations: sess.D.Net.Violations(),
		}
	})
	if err != nil {
		return nil, err
	}
	if aerr != nil {
		return nil, aerr
	}
	return resp, nil
}

// Apply executes one operation batch atomically against a session:
// either every operation in the batch applies (in order) or none does.
// Atomicity needs no rollback — the whole batch is pre-checked against
// the remaining budget and every operation is validated with
// dpm.Validate, whose error set mirrors Apply's exactly, before the
// first δ runs.
func (s *Server) Apply(id string, ops []dpm.Operation) (*ApplyResponse, error) {
	resp, _, err := s.ApplyKeyed(id, "", ops)
	return resp, err
}

// ApplyKeyed is Apply with an optional client idempotency key. A keyed
// batch is applied exactly once per session: retrying the same key —
// after a 429, a timeout, or even a crash and recovery, since the key
// rides in the WAL ops record — returns the original acknowledgement
// with replayed=true and applies nothing. On a durable server the
// batch is logged (and, under SyncAlways, fsynced) before the first δ
// runs: any acknowledged batch survives a crash.
func (s *Server) ApplyKeyed(id, key string, ops []dpm.Operation) (*ApplyResponse, bool, error) {
	sh, err := s.shardFor(id)
	if err != nil {
		return nil, false, err
	}
	// Encode the wire form on the caller's goroutine; the shard loop
	// only appends and hashes it. A keyed batch is encoded even on a
	// non-durable server: the key's conflict check hashes the canonical
	// wire form, so a keyed batch must be wire-encodable (in particular
	// NaN/Inf assignments are rejected up front).
	var opsRaw []byte
	var keyHash [sha256.Size]byte
	if s.opts.DataDir != "" || key != "" {
		if opsRaw, err = encodeOpsWire(ops); err != nil {
			return nil, false, err
		}
		if key != "" {
			keyHash = sha256.Sum256(opsRaw)
		}
	}
	var resp *ApplyResponse
	var replayed bool
	var aerr error
	err = sh.submit(func() {
		hs, lerr := sh.lookup(id)
		if lerr != nil {
			aerr = lerr
			return
		}
		if key != "" {
			cached, outcome := hs.idem.lookup(key, keyHash)
			switch outcome {
			case idemReplay:
				resp, replayed = cached, true
				return
			case idemConflict:
				aerr = fmt.Errorf("%w: key %q", ErrKeyConflict, key)
				return
			case idemEvicted:
				// The batch already applied under this key but its ack
				// aged out of the bounded cache. Fail closed: re-applying
				// would break exactly-once, and fabricating an ack would
				// lie about what the original apply returned.
				aerr = fmt.Errorf("%w: key %q", ErrAckEvicted, key)
				return
			}
		}
		if aerr = validateBatch(hs, ops); aerr != nil {
			return
		}
		// Log before ack: the accepted batch reaches the WAL before any
		// state changes, so every acknowledged batch is recoverable. A
		// crash between log and apply replays the batch on recovery —
		// legal, because a validated batch always applies and the client
		// never saw a rejection.
		if hs.img != nil {
			aerr = sh.appendWAL(&wal.Record{Type: wal.TypeOps, Session: id, Key: key, Ops: opsRaw})
			if aerr != nil {
				return
			}
		}
		resp, aerr = applyBatch(hs, ops)
		if aerr != nil {
			return
		}
		if hs.img != nil {
			hs.img.Ops = append(hs.img.Ops, wal.OpsEntry{Key: key, Ops: opsRaw})
		}
		if key != "" {
			hs.idem.add(key, keyHash, resp)
		}
		sh.maybeRotate()
	})
	if err != nil {
		return nil, false, err
	}
	return resp, replayed, aerr
}

// State returns a full snapshot of the session's design state,
// transparently restoring a parked session.
func (s *Server) State(id string) (*StateResponse, error) {
	sh, err := s.shardFor(id)
	if err != nil {
		return nil, err
	}
	var resp *StateResponse
	var serr error
	err = sh.submit(func() {
		hs, lerr := sh.lookup(id)
		if lerr != nil {
			serr = lerr
			return
		}
		resp = buildState(hs)
	})
	if err != nil {
		return nil, err
	}
	return resp, serr
}

// Delete retires a session and returns its final accounting. On a
// durable server the delete is logged first, so a recovered server
// never resurrects a session the client saw deleted; a parked session
// is deleted in place (its park-time summary is the final accounting)
// without paying for a restore.
func (s *Server) Delete(id string) (*SessionSummary, error) {
	sh, err := s.shardFor(id)
	if err != nil {
		return nil, err
	}
	var resp *SessionSummary
	var derr error
	err = sh.submit(func() {
		hs := sh.sessions[id]
		p := sh.parked[id]
		if hs == nil && p == nil {
			switch {
			case sh.migrating[id] != nil:
				derr = fmt.Errorf("%w: session %q", ErrMigrating, id)
			case sh.moved[id] != "":
				derr = &MovedError{ID: id, Location: sh.moved[id]}
			default:
				derr = ErrUnknownSession
			}
			return
		}
		if sh.wal != nil {
			if derr = sh.appendWAL(&wal.Record{Type: wal.TypeDelete, Session: id}); derr != nil {
				return
			}
		}
		if hs != nil {
			sum := sh.retire(hs, false, true)
			sh.deleted.Add(1)
			resp = &sum
			return
		}
		sum := p.sum
		sum.Evicted = false
		sum.Deleted = true
		sh.fold(sum)
		delete(sh.parked, id)
		sh.nParked.Store(int64(len(sh.parked)))
		sh.deleted.Add(1)
		resp = &sum
	})
	if err != nil {
		return nil, err
	}
	return resp, derr
}

// Sweep runs an eviction pass on every shard immediately and returns
// the number of sessions evicted. The periodic sweeper calls the same
// per-shard logic; this entry point exists for tests and operators.
func (s *Server) Sweep() int {
	total := 0
	for _, sh := range s.shards {
		n := 0
		if err := sh.submit(func() { n = sh.sweepNow() }); err == nil {
			total += n
		}
	}
	return total
}

// SyncWALs runs the WAL group commit on every durable shard now — the
// work the SyncInterval ticker does on a wall clock, exposed so a
// simulation driving a virtual clock can fire it as an explicit event.
// Returns the first sync failure (the shard's log is then broken).
func (s *Server) SyncWALs() error {
	var first error
	for _, sh := range s.shards {
		if sh.wal == nil {
			continue
		}
		err := sh.submit(func() {
			if serr := sh.wal.Sync(); serr != nil {
				sh.walBroken.Store(true)
				if first == nil {
					first = serr
				}
			}
		})
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Kill stops the server the way a crash would: intake stops and tasks
// already accepted still execute (their submitters are blocked on
// them), but there is no final WAL flush, no summary fold, and no
// clean close — each shard's log is abandoned with exactly the
// durability it already earned. What a reopened server recovers is
// then a pure function of the fsync policy, which is the point: the
// simulation uses Kill (plus faultfs crash semantics) to probe the
// durability contract rather than the shutdown path. Kill and Drain
// are mutually exclusive; whichever runs first wins.
func (s *Server) Kill() {
	s.drainOnce.Do(func() {
		s.StopSubscribers()
		s.draining.Store(true)
		// Shards die one at a time, in index order: the shutdown path of
		// shard i+1 must not interleave with shard i's, or runs sharing a
		// fault-injecting FS lose their deterministic operation order.
		for _, sh := range s.shards {
			sh.killed.Store(true)
			sh.mu.Lock()
			if !sh.closed {
				sh.closed = true
				close(sh.quit)
			}
			sh.mu.Unlock()
			<-sh.done
		}
	})
}

// Draining reports whether Drain has been initiated.
func (s *Server) Draining() bool { return s.draining.Load() }

// StopSubscribers ends every live SSE stream and rejects new
// subscriptions; applied work is unaffected. Idempotent. Drain calls it
// first, but hosts that shut the HTTP listener down before draining
// (cmd/adpmd) call it themselves so event streams — which outlive any
// single request — never wedge http.Server.Shutdown.
func (s *Server) StopSubscribers() {
	s.subStopOnce.Do(func() { close(s.subStop) })
}

// Drain stops intake, waits for every shard to execute its already
// accepted requests (no acknowledged operation is lost), retires all
// live sessions, and returns the per-shard summaries. Idempotent;
// concurrent callers all receive the same summaries.
func (s *Server) Drain() []ShardSummary {
	s.drainOnce.Do(func() {
		s.StopSubscribers()
		s.draining.Store(true)
		// Sequential, in index order, for the same reason as Kill: shard
		// finalization fsyncs against a shared FS must land in a
		// deterministic order for the simulation's byte-replayability.
		out := make([]ShardSummary, len(s.shards))
		for i, sh := range s.shards {
			sh.mu.Lock()
			if !sh.closed {
				sh.closed = true
				close(sh.quit)
			}
			sh.mu.Unlock()
			<-sh.done
			out[i] = sh.summary
		}
		s.drainRes = out
	})
	return s.drainRes
}

// ShardStats is one shard's live gauges.
type ShardStats struct {
	Shard        int    `json:"shard"`
	Sessions     int64  `json:"sessions"`
	MailboxDepth int    `json:"mailbox_depth"`
	MailboxCap   int    `json:"mailbox_cap"`
	Created      uint64 `json:"created"`
	Evicted      uint64 `json:"evicted"`
	Deleted      uint64 `json:"deleted"`
	Rejected     uint64 `json:"rejected"`

	// Durability gauges; zero on a non-durable server.
	Parked     int64  `json:"parked,omitempty"`
	Restored   uint64 `json:"restored,omitempty"`
	Moved      int64  `json:"moved,omitempty"`
	Migrated   uint64 `json:"migrated,omitempty"`
	Adopted    uint64 `json:"adopted,omitempty"`
	WALAppends uint64 `json:"wal_appends,omitempty"`
	WALBytes   uint64 `json:"wal_bytes,omitempty"`
	Rotations  uint64 `json:"wal_rotations,omitempty"`
	WALBroken  bool   `json:"wal_broken,omitempty"`

	// Live fan-out gauges; zero when no subscriber ever attached.
	Subscribers     int64  `json:"subscribers,omitempty"`
	NotifyDelivered uint64 `json:"notify_delivered,omitempty"`
	NotifyDropped   uint64 `json:"notify_dropped,omitempty"`
	NotifyCoalesced uint64 `json:"notify_coalesced,omitempty"`

	// Snapshot-cache gauges (GET /state).
	StateHits   uint64 `json:"state_hits,omitempty"`
	StateMisses uint64 `json:"state_misses,omitempty"`
}

// Stats is the server-wide gauge snapshot (expvar / GET /stats).
type Stats struct {
	Draining bool         `json:"draining"`
	Shards   []ShardStats `json:"shards"`
}

// Stats snapshots the live gauges of every shard.
func (s *Server) Stats() Stats {
	st := Stats{Draining: s.draining.Load()}
	for _, sh := range s.shards {
		st.Shards = append(st.Shards, ShardStats{
			Shard:        sh.idx,
			Sessions:     sh.nSessions.Load(),
			MailboxDepth: len(sh.mailbox),
			MailboxCap:   cap(sh.mailbox),
			Created:      sh.created.Load(),
			Evicted:      sh.evicted.Load(),
			Deleted:      sh.deleted.Load(),
			Rejected:     sh.rejected.Load(),
			Parked:       sh.nParked.Load(),
			Restored:     sh.restored.Load(),
			Moved:        sh.nMoved.Load(),
			Migrated:     sh.migrated.Load(),
			Adopted:      sh.adopted.Load(),
			WALAppends:   sh.walAppends.Load(),
			WALBytes:     sh.walBytes.Load(),
			Rotations:    sh.rotations.Load(),
			WALBroken:    sh.walBroken.Load(),

			Subscribers:     sh.hubStats.Subscribers.Load(),
			NotifyDelivered: sh.hubStats.Delivered.Load(),
			NotifyDropped:   sh.hubStats.Dropped.Load() + sh.hubStats.Coalesced.Load(),
			NotifyCoalesced: sh.hubStats.Coalesced.Load(),

			StateHits:   sh.stateHits.Load(),
			StateMisses: sh.stateMisses.Load(),
		})
	}
	return st
}
