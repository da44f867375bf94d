package server

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dpm"
	"repro/internal/faultfs"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Durability model. With Options.DataDir set, every shard owns a
// write-ahead log (internal/wal) of its accepted state transitions:
// session creates, validated operation batches, deletes, and rotation
// snapshots. The ordering invariant is log-before-ack: an Apply batch
// is framed, written, and (under SyncAlways) fsynced before the first
// δ runs, so any batch a client saw acknowledged is on disk. Because δ
// is deterministic bit for bit, a session's durable form is just its
// generating history (wal.SessionImage), and recovery is replay: a
// restarted server folds the log into images and lazily rebuilds each
// session on its next touch, reaching byte-identical state.
//
// Idle eviction becomes persist-then-evict: instead of retiring the
// session (PR 3 semantics, still used without a DataDir), the shard
// parks its image and drops the expensive live engine; the next touch
// restores it transparently by the same replay path recovery uses.

// ErrStorage reports a durable-storage failure: the WAL could not log
// the request, so it was not applied and must not be acknowledged.
// Surfaced as HTTP 503.
var ErrStorage = errors.New("server: durable storage failure")

// metaName is the data-dir metadata file recording the shard count a
// data dir was formatted with; session ids are sharded by that count,
// so reopening with a different one would misroute every recovered id.
const metaName = "META.json"

type metaFile struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// checkMeta validates or initializes the data dir's metadata.
func checkMeta(fsys faultfs.FS, dir string, shards int) error {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("%w: %v", ErrStorage, err)
	}
	path := filepath.Join(dir, metaName)
	if b, err := fsys.ReadFile(path); err == nil {
		var m metaFile
		if err := json.Unmarshal(b, &m); err != nil {
			return fmt.Errorf("%w: corrupt %s: %v", ErrStorage, path, err)
		}
		if m.Shards != shards {
			return fmt.Errorf("%w: data dir %s was formatted with %d shards, server configured with %d",
				ErrStorage, dir, m.Shards, shards)
		}
		return nil
	}
	b, _ := json.Marshal(metaFile{Version: 1, Shards: shards})
	if err := faultfs.WriteFile(fsys, path, b, 0o644); err != nil {
		return fmt.Errorf("%w: writing %s: %v", ErrStorage, path, err)
	}
	return fsys.SyncDir(dir)
}

// shardDir returns shard i's WAL directory under the data dir.
func shardDir(dataDir string, i int) string {
	return filepath.Join(dataDir, fmt.Sprintf("shard-%d", i))
}

// parkedSession is an evicted-but-durable session: its image (create
// parameters + accepted batch history) without the live engine. A
// touch restores it by deterministic replay.
type parkedSession struct {
	img      *wal.SessionImage
	scenario string
	sum      SessionSummary
	// tracedBatches is how many batches of the image already emitted
	// operation events into the current shard recorder's stream; the
	// restore replay keeps the tracer detached for exactly that prefix
	// so the shard trace still reconciles (each op traced once).
	tracedBatches int
	lastUsed      time.Time
}

// seqFromID extracts the global sequence number from "s<shard>-<seq>".
func seqFromID(id string) (uint64, bool) {
	_, rest, ok := strings.Cut(id, "-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// parseModeString resolves a persisted mode name.
func parseModeString(s string) (dpm.Mode, error) {
	switch s {
	case "", "ADPM", "adpm":
		return dpm.ADPM, nil
	case "conventional":
		return dpm.Conventional, nil
	}
	return dpm.ADPM, fmt.Errorf("unknown mode %q", s)
}

// encodeOpsWire renders an operation batch in its wire form for the
// WAL. Values that JSON cannot carry (NaN, infinities) are rejected —
// the wire layer never produces them, so this guards only programmatic
// callers of a durable server.
func encodeOpsWire(ops []dpm.Operation) (json.RawMessage, error) {
	ws := make([]WireOp, len(ops))
	for i := range ops {
		for _, a := range ops[i].Assignments {
			if !a.Value.IsString() {
				if v := a.Value.Num(); math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("%w: assignment to %q: %v is not durable (JSON cannot encode it)",
						ErrInvalid, a.Prop, v)
				}
			}
		}
		ws[i] = WireFromOperation(ops[i])
	}
	raw, err := json.Marshal(ws)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return raw, nil
}

// decodeOpsWire is the replay-side inverse of encodeOpsWire.
func decodeOpsWire(raw json.RawMessage) ([]dpm.Operation, error) {
	var ws []WireOp
	if err := json.Unmarshal(raw, &ws); err != nil {
		return nil, err
	}
	ops := make([]dpm.Operation, len(ws))
	for i, w := range ws {
		op, err := w.toOperation()
		if err != nil {
			return nil, err
		}
		ops[i] = op
	}
	return ops, nil
}

// openShardWAL opens shard i's log, folds its records into parked
// sessions, and returns the highest sequence number mentioned anywhere
// in the log (with ok reporting whether any was). The high-water scans
// every id the log ever saw, not just survivors: a deleted session's
// records are gone from the fold but its id must never be re-issued,
// or idempotency keys and Last-Event-ID positions scoped to the old
// incarnation would apply to the new one. Called from Open before the
// shard loop starts, so it may touch loop state directly.
func (sh *shard) openShardWAL(dataDir string, policy wal.SyncPolicy, segBytes int64, fsys faultfs.FS) (uint64, bool, error) {
	var ship func(wal.ShipEvent) error
	if repl := sh.opts.Repl; repl != nil {
		idx := sh.idx
		ship = func(ev wal.ShipEvent) error { return repl.Ship(idx, ev) }
	}
	lg, info, err := wal.Open(wal.Options{
		Dir:          shardDir(dataDir, sh.idx),
		FS:           fsys,
		Policy:       policy,
		SegmentBytes: segBytes,
		Ship:         ship,
	})
	if err != nil {
		return 0, false, fmt.Errorf("%w: shard %d: %v", ErrStorage, sh.idx, err)
	}
	sh.wal = lg
	sh.segBase = lg.SegmentSize()
	var maxSeq uint64
	haveSeq := false
	for id := range info.AllSessions {
		if seq, ok := seqFromID(id); ok {
			haveSeq = true
			if seq > maxSeq {
				maxSeq = seq
			}
		}
	}
	// Snapshot-recorded high-water: compaction deletes the segments that
	// mentioned dead ids, so AllSessions alone forgets a deleted
	// session once a rotation subsumes its records. The snapshot's
	// NextSeq is the counter value itself (next id to issue).
	if info.NextSeq > 0 {
		haveSeq = true
		if info.NextSeq-1 > maxSeq {
			maxSeq = info.NextSeq - 1
		}
	}
	for id, img := range info.Sessions {
		if img.Moved != "" {
			// A forwarding tombstone, not a session: the id migrated away
			// and misroutes keep answering 307 after recovery.
			sh.moved[id] = img.Moved
			continue
		}
		sh.installParked(img)
	}
	sh.nMoved.Store(int64(len(sh.moved)))
	if sh.rec.Enabled() {
		sh.rec.Emit(trace.Event{
			Kind:      trace.KindRecover,
			Sessions:  len(info.Sessions),
			Records:   info.Records,
			Bytes:     info.Bytes,
			TornBytes: info.TornBytes,
		})
	}
	return maxSeq, haveSeq, nil
}

// appendWAL logs one record, updating the gauges and trace; a nil
// shard log is a no-op. The returned error is ErrStorage-wrapped and
// means the request must be rejected un-applied.
func (sh *shard) appendWAL(rec *wal.Record) error {
	if sh.wal == nil {
		return nil
	}
	n, err := sh.wal.Append(rec)
	if err != nil {
		if sh.wal.Broken() != nil {
			sh.walBroken.Store(true)
		}
		return fmt.Errorf("%w: %v", ErrStorage, err)
	}
	sh.walAppends.Add(1)
	sh.walBytes.Add(uint64(n))
	if sh.rec.Enabled() {
		sh.rec.Emit(trace.Event{Kind: trace.KindWALAppend, Name: rec.Type, Bytes: int64(n)})
	}
	return nil
}

// maybeRotate starts a new segment headed by a full-state snapshot once
// the current one is past the configured size AND has doubled past the
// snapshot that heads it — without the doubling condition, a snapshot
// bigger than the segment limit would re-trigger rotation on every
// append, rewriting the full state each time. Rotation failures are
// retried on a later append unless the log broke.
func (sh *shard) maybeRotate() {
	if sh.wal == nil || sh.wal.Broken() != nil {
		return
	}
	if size := sh.wal.SegmentSize(); size < sh.wal.SegmentLimit() || size < 2*sh.segBase {
		return
	}
	snap := &wal.Record{Type: wal.TypeSnapshot, NextSeq: sh.seqNow()}
	ids := make([]string, 0, len(sh.sessions)+len(sh.parked)+len(sh.migrating)+len(sh.moved))
	for id := range sh.sessions {
		ids = append(ids, id)
	}
	for id := range sh.parked {
		ids = append(ids, id)
	}
	// Mid-migration images and moved tombstones must survive compaction
	// too: losing a frozen image would turn an aborted migration into
	// data loss, and losing a tombstone would turn a misroute into a
	// resurrection.
	for id := range sh.migrating {
		ids = append(ids, id)
	}
	for id := range sh.moved {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		var img *wal.SessionImage
		switch {
		case sh.sessions[id] != nil:
			img = sh.sessions[id].img
		case sh.parked[id] != nil:
			img = sh.parked[id].img
		case sh.migrating[id] != nil:
			img = sh.migrating[id].img
		default:
			snap.Sessions = append(snap.Sessions, wal.SessionImage{ID: id, Moved: sh.moved[id]})
			continue
		}
		snap.Sessions = append(snap.Sessions, *img.Clone())
	}
	if err := sh.wal.Rotate(snap); err != nil {
		if sh.wal.Broken() != nil {
			sh.walBroken.Store(true)
		}
		return
	}
	sh.segBase = sh.wal.SegmentSize()
	sh.rotations.Add(1)
}

// lookup resolves a session id on the loop goroutine: a live session
// is touched and returned; a parked one is transparently restored
// first. Loop goroutine only.
func (sh *shard) lookup(id string) (*hostedSession, error) {
	if hs := sh.sessions[id]; hs != nil {
		hs.lastUsed = sh.now()
		return hs, nil
	}
	p := sh.parked[id]
	if p == nil {
		if sh.migrating[id] != nil {
			return nil, fmt.Errorf("%w: session %q", ErrMigrating, id)
		}
		if loc := sh.moved[id]; loc != "" {
			return nil, &MovedError{ID: id, Location: loc}
		}
		return nil, ErrUnknownSession
	}
	hs, err := sh.buildFromImage(p.img, p.tracedBatches)
	if err != nil {
		return nil, fmt.Errorf("%w: restoring %s: %v", ErrStorage, id, err)
	}
	delete(sh.parked, id)
	sh.nParked.Store(int64(len(sh.parked)))
	hs.lastUsed = sh.now()
	sh.sessions[id] = hs
	sh.nSessions.Store(int64(len(sh.sessions)))
	sh.restored.Add(1)
	if sh.rec.Enabled() {
		sh.rec.Emit(trace.Event{
			Kind:     trace.KindRestore,
			Name:     id,
			Scenario: hs.scenario,
			Records:  len(hs.img.Ops),
		})
	}
	return hs, nil
}

// buildFromImage rebuilds a live session from its durable image by
// deterministic replay on a stamp of the image's template. The first
// tracedBatches batches replay with the tracer detached (their operation
// events are already in the shard's stream); the rest — all of them
// after a process restart — emit normally so the stream still
// reconciles at drain. Loop goroutine only.
func (sh *shard) buildFromImage(img *wal.SessionImage, tracedBatches int) (*hostedSession, error) {
	tmpl, err := sh.templates.forImage(img)
	if err != nil {
		return nil, err
	}
	sess := tmpl.NewSession(img.MaxOps)
	hs := &hostedSession{
		id:       img.ID,
		scenario: tmpl.Scenario().Name,
		sess:     sess,
		img:      img,
		idem:     newIdemCache(sh.opts.IdemCap),
	}
	// The event hook rides the replay: every replayed batch regenerates
	// the session's notification log positions exactly as the live run
	// produced them (no hub exists yet, so nothing is re-delivered).
	sh.attachEvents(hs)
	attached := false
	for i, entry := range img.Ops {
		if i >= tracedBatches && !attached {
			sess.SetTracer(sh.rec)
			attached = true
		}
		ops, err := decodeOpsWire(entry.Ops)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %v", i, err)
		}
		if err := validateBatch(hs, ops); err != nil {
			return nil, fmt.Errorf("batch %d no longer validates (log/engine divergence): %v", i, err)
		}
		resp, err := applyBatch(hs, ops)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %v", i, err)
		}
		if entry.Key != "" {
			// The WAL stores exactly the wire-canonical bytes the live
			// path hashed, so the conflict check survives park/restore and
			// crash recovery unchanged; rebuilding through the same add
			// path means the LRU bound (and order) survives too.
			hs.idem.add(entry.Key, sha256.Sum256(entry.Ops), resp)
		}
	}
	if !attached {
		sess.SetTracer(sh.rec)
	}
	return hs, nil
}

// park drops a session's live engine but keeps its durable image and
// summary: persist-then-evict. Live subscribers are detached — their
// streams end, and a reconnect with Last-Event-ID restores the session
// and resumes from the regenerated event log. Loop goroutine only.
func (sh *shard) park(hs *hostedSession) {
	if hs.hub != nil {
		hs.hub.Close()
		hs.hub = nil
	}
	sum := SessionSummary{
		ID:            hs.id,
		Scenario:      hs.scenario,
		Mode:          hs.sess.Res.Mode.String(),
		Evicted:       true,
		Completed:     hs.sess.D.Done(),
		Operations:    hs.sess.Res.Operations,
		Evaluations:   hs.sess.Res.Evaluations,
		Spins:         hs.sess.Res.Spins,
		Notifications: hs.sess.Res.Notifications,
	}
	sh.parked[hs.id] = &parkedSession{
		img:           hs.img,
		scenario:      hs.scenario,
		sum:           sum,
		tracedBatches: len(hs.img.Ops),
		lastUsed:      hs.lastUsed,
	}
	delete(sh.sessions, hs.id)
	sh.nSessions.Store(int64(len(sh.sessions)))
	sh.nParked.Store(int64(len(sh.parked)))
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

// validateBatch enforces the pre-δ checks shared by the live apply path
// and replay: non-empty batch, whole batch within the remaining budget,
// every operation accepted by dpm.Validate.
func validateBatch(hs *hostedSession, ops []dpm.Operation) error {
	if len(ops) == 0 {
		return fmt.Errorf("%w: empty op batch", ErrInvalid)
	}
	if rem := hs.sess.Remaining(); rem < len(ops) {
		return fmt.Errorf("%w: batch of %d ops, %d remaining", ErrBudget, len(ops), rem)
	}
	for i := range ops {
		if verr := hs.sess.D.Validate(ops[i]); verr != nil {
			return fmt.Errorf("%w: op %d: %v", ErrInvalid, i, verr)
		}
	}
	return nil
}

// applyBatch executes a validated batch and builds its acknowledgement.
// An apply error here means dpm.Validate's error set has a hole — the
// caller surfaces it loudly instead of acking a half-applied batch.
func applyBatch(hs *hostedSession, ops []dpm.Operation) (*ApplyResponse, error) {
	resp := &ApplyResponse{ID: hs.id}
	for i := range ops {
		tr, err := hs.sess.Apply(ops[i])
		if err != nil {
			return nil, fmt.Errorf("server: state diverged: validated op %d failed: %v", i, err)
		}
		resp.Transitions = append(resp.Transitions, transitionState(tr))
	}
	resp.Stage = hs.sess.D.Stage()
	resp.Applied = len(ops)
	resp.Remaining = hs.sess.Remaining()
	resp.Done = hs.sess.D.Done()
	resp.Violations = hs.sess.D.Net.Violations()
	// Every accepted batch bumps the generation, live or replayed:
	// the serialized-state cache keyed by it can never serve stale
	// bytes. Rejected batches leave it untouched, so a rejection keeps
	// the cache (and the state) byte-identical.
	hs.gen++
	return resp, nil
}
