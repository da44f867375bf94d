package replica

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/faultfs"
	"repro/internal/wal"
)

// FollowerOptions parameterize NewFollower.
type FollowerOptions struct {
	// Dir is the follower's data directory; shard WALs mirror into
	// Dir/shard-<i>/ in the exact layout server.Open expects.
	Dir string
	// FS is the follower's filesystem; nil means the real one.
	FS faultfs.FS
	// Shards is the shard count (must match the leader's).
	Shards int
}

// fshard is one shard's replica state: the mirrored segment position
// plus the continuously folded session images (the "parked" set a
// promotion would recover).
type fshard struct {
	dir      string
	seg      int   // current segment index; 0 before any data
	off      int64 // applied bytes of the current segment
	crc      uint32
	f        faultfs.File // append handle for the current segment
	sessions map[string]*wal.SessionImage
	records  int64
	broken   error
}

// Follower mirrors a leader's shard WALs byte for byte and folds every
// record as it arrives — continuous recovery. It implements Peer for
// in-process replication; Serve exposes the same verbs over TCP.
// Safe for concurrent use.
type Follower struct {
	opts FollowerOptions

	mu       sync.Mutex
	promoted bool
	handoff  bool
	shards   []*fshard
}

// NewFollower opens (or creates) the follower's mirror directories and
// recovers each shard's position: segments are scanned with the same
// framing rules wal.Open trusts, a torn tail on the newest segment is
// truncated away, and the surviving records fold into session images.
// A shard with real corruption (a bad frame before the newest tail) is
// marked broken rather than failing construction — the leader repairs
// it with a Reset + full copy on first contact.
func NewFollower(opts FollowerOptions) (*Follower, error) {
	if opts.FS == nil {
		opts.FS = faultfs.OS{}
	}
	if opts.Shards <= 0 {
		return nil, fmt.Errorf("replica: FollowerOptions.Shards is required")
	}
	f := &Follower{opts: opts}
	for i := 0; i < opts.Shards; i++ {
		sh := &fshard{dir: ShardDir(opts.Dir, i), sessions: map[string]*wal.SessionImage{}}
		if err := f.recoverShard(sh); err != nil {
			sh.broken = fmt.Errorf("%w: %v", ErrShardBroken, err)
		}
		f.shards = append(f.shards, sh)
	}
	return f, nil
}

// recoverShard rebuilds one shard's replica state from disk.
func (f *Follower) recoverShard(sh *fshard) error {
	fsys := f.opts.FS
	if err := fsys.MkdirAll(sh.dir, 0o755); err != nil {
		return err
	}
	segs, err := wal.ListSegments(fsys, sh.dir)
	if err != nil {
		return err
	}
	for i, idx := range segs {
		name := wal.SegmentPath(sh.dir, idx)
		data, err := fsys.ReadFile(name)
		if err != nil {
			return err
		}
		final := i == len(segs)-1
		good, recs, err := f.foldSegment(sh, data)
		if err != nil && !final {
			return fmt.Errorf("segment %s: %v", name, err)
		}
		sh.records += int64(recs)
		if final {
			if torn := int64(len(data)) - good; torn > 0 {
				// The expected signature of a crash mid-append: truncate the
				// torn tail away, exactly like wal.Open.
				h, terr := fsys.OpenFile(name, os.O_WRONLY, 0o644)
				if terr != nil {
					return terr
				}
				if terr := h.Truncate(good); terr != nil {
					h.Close()
					return terr
				}
				if terr := h.Sync(); terr != nil {
					h.Close()
					return terr
				}
				if terr := h.Close(); terr != nil {
					return terr
				}
			}
			sh.seg, sh.off, sh.crc = idx, good, wal.Checksum(data[:good])
		}
	}
	if sh.seg != 0 {
		// Fsync the inherited tail: recovery is a durability checkpoint
		// here for the same reason it is in wal.Open.
		h, err := fsys.OpenFile(wal.SegmentPath(sh.dir, sh.seg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		if err := h.Sync(); err != nil {
			h.Close()
			return err
		}
		sh.f = h
	}
	return nil
}

// foldSegment folds the intact frame prefix of one segment into the
// shard's sessions, returning the prefix length and record count. A
// non-nil error means the bytes do not end cleanly.
func (f *Follower) foldSegment(sh *fshard, data []byte) (int64, int, error) {
	off := int64(0)
	recs := 0
	for {
		frame, err := nextFrame(data[off:])
		if frame == nil {
			return off, recs, err
		}
		rec, derr := decodeFrame(frame)
		if derr != nil {
			return off, recs, derr
		}
		if ferr := wal.Fold(sh.sessions, rec); ferr != nil {
			return off, recs, ferr
		}
		off += int64(len(frame))
		recs++
	}
}

// nextFrame returns the first complete, CRC-valid frame of data, nil
// with a nil error at a clean end, or nil with an error at a torn or
// corrupt boundary.
func nextFrame(data []byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, nil
	}
	if len(data) < 8 {
		return nil, fmt.Errorf("torn frame header")
	}
	n := int64(binary.LittleEndian.Uint32(data))
	if n > wal.MaxRecordBytes {
		return nil, fmt.Errorf("frame length %d exceeds limit", n)
	}
	if int64(len(data))-8 < n {
		return nil, fmt.Errorf("torn frame")
	}
	frame := data[:8+n]
	if wal.Checksum(frame[8:]) != binary.LittleEndian.Uint32(data[4:]) {
		return nil, fmt.Errorf("CRC mismatch")
	}
	return frame, nil
}

// decodeFrame validates and decodes one complete frame's record.
func decodeFrame(frame []byte) (*wal.Record, error) {
	var rec wal.Record
	if err := json.Unmarshal(frame[8:], &rec); err != nil {
		return nil, fmt.Errorf("undecodable record: %v", err)
	}
	return &rec, nil
}

// checkFrame validates a shipped frame's structure and CRC without
// touching disk: exactly one frame, intact. The follower never writes
// a frame this rejects.
func checkFrame(frame []byte) (*wal.Record, error) {
	got, err := nextFrame(frame)
	if err != nil || got == nil || len(got) != len(frame) {
		return nil, fmt.Errorf("%w: %v", ErrCorruptFrame, err)
	}
	return decodeFrame(frame)
}

// shard resolves a shard index under the lock.
func (f *Follower) shard(i int) (*fshard, error) {
	if f.promoted {
		return nil, ErrPromoted
	}
	if i < 0 || i >= len(f.shards) {
		return nil, fmt.Errorf("replica: shard %d out of range", i)
	}
	sh := f.shards[i]
	if sh.broken != nil {
		return nil, sh.broken
	}
	return sh, nil
}

// Pos implements Peer.
func (f *Follower) Pos(shard int) (Pos, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sh, err := f.shard(shard)
	if err != nil {
		return Pos{}, err
	}
	return Pos{Seg: sh.seg, Off: sh.off, CRC: sh.crc}, nil
}

// Append implements Peer: verify, persist (with per-frame fsync — the
// follower is always as durable as what it acked), then fold.
func (f *Follower) Append(shard, seg int, off int64, frame []byte) (Pos, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sh, err := f.shard(shard)
	if err != nil {
		return Pos{}, err
	}
	rec, err := checkFrame(frame)
	if err != nil {
		return Pos{Seg: sh.seg, Off: sh.off, CRC: sh.crc}, err
	}
	if seg != sh.seg || off != sh.off {
		return Pos{Seg: sh.seg, Off: sh.off, CRC: sh.crc},
			fmt.Errorf("%w: append at seg=%d off=%d, follower at seg=%d off=%d", ErrOutOfSync, seg, off, sh.seg, sh.off)
	}
	if err := f.writeFrame(sh, frame); err != nil {
		return Pos{Seg: sh.seg, Off: sh.off, CRC: sh.crc}, err
	}
	if err := wal.Fold(sh.sessions, rec); err != nil {
		// The leader folded this exact sequence, so a fold failure means
		// replica state diverged from its own log: fail stop until Reset.
		sh.broken = fmt.Errorf("%w: fold: %v", ErrShardBroken, err)
		return Pos{}, sh.broken
	}
	sh.records++
	return Pos{Seg: sh.seg, Off: sh.off, CRC: sh.crc}, nil
}

// writeFrame appends frame to the shard's current segment, repairing a
// torn tail by truncation if the write fails short.
func (f *Follower) writeFrame(sh *fshard, frame []byte) error {
	if sh.f == nil {
		h, err := f.opts.FS.OpenFile(wal.SegmentPath(sh.dir, sh.seg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		sh.f = h
	}
	if _, err := sh.f.Write(frame); err != nil {
		if terr := sh.f.Truncate(sh.off); terr != nil {
			sh.broken = fmt.Errorf("%w: write failed (%v) and truncate repair failed (%v)", ErrShardBroken, err, terr)
			return sh.broken
		}
		if serr := sh.f.Sync(); serr != nil {
			sh.broken = fmt.Errorf("%w: write failed (%v) and repair sync failed (%v)", ErrShardBroken, err, serr)
			return sh.broken
		}
		return err
	}
	if err := sh.f.Sync(); err != nil {
		sh.broken = fmt.Errorf("%w: fsync failed: %v", ErrShardBroken, err)
		return sh.broken
	}
	sh.off += int64(len(frame))
	sh.crc = wal.ChecksumUpdate(sh.crc, frame)
	return nil
}

// Rotate implements Peer, mirroring wal.Rotate: the new segment is
// created and made durable (data sync, then directory sync) before the
// old ones are removed.
func (f *Follower) Rotate(shard, seg int, frame []byte) (Pos, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sh, err := f.shard(shard)
	if err != nil {
		return Pos{}, err
	}
	rec, err := checkFrame(frame)
	if err != nil {
		return Pos{Seg: sh.seg, Off: sh.off, CRC: sh.crc}, err
	}
	if seg != sh.seg+1 {
		return Pos{Seg: sh.seg, Off: sh.off, CRC: sh.crc},
			fmt.Errorf("%w: rotate to seg=%d, follower at seg=%d", ErrOutOfSync, seg, sh.seg)
	}
	if err := f.installSegment(sh, seg, frame, rec); err != nil {
		return Pos{Seg: sh.seg, Off: sh.off, CRC: sh.crc}, err
	}
	f.removeOlder(sh, seg)
	return Pos{Seg: sh.seg, Off: sh.off, CRC: sh.crc}, nil
}

// installSegment writes data as segment seg, makes it durable, swaps
// the append handle to it, and folds rec (the already-validated decode
// of data's records — for a rotation that is just the snapshot head).
func (f *Follower) installSegment(sh *fshard, seg int, data []byte, rec *wal.Record) error {
	fsys := f.opts.FS
	name := wal.SegmentPath(sh.dir, seg)
	h, err := fsys.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	abort := func(stage string, err error) error {
		h.Close()
		if rerr := fsys.Remove(name); rerr != nil {
			sh.broken = fmt.Errorf("%w: install %s failed (%v) and cleanup failed (%v)", ErrShardBroken, stage, err, rerr)
			return sh.broken
		}
		return err
	}
	if _, err := h.Write(data); err != nil {
		return abort("write", err)
	}
	if err := h.Sync(); err != nil {
		return abort("sync", err)
	}
	if err := fsys.SyncDir(sh.dir); err != nil {
		return abort("syncdir", err)
	}
	if sh.f != nil {
		sh.f.Close()
	}
	sh.f = h
	sh.seg, sh.off, sh.crc = seg, int64(len(data)), wal.Checksum(data)
	if err := wal.Fold(sh.sessions, rec); err != nil {
		sh.broken = fmt.Errorf("%w: fold: %v", ErrShardBroken, err)
		return sh.broken
	}
	sh.records++
	return nil
}

// removeOlder removes segments below keep; failures cost disk space
// only (recovery folds ascending), matching the leader's contract.
func (f *Follower) removeOlder(sh *fshard, keep int) {
	fsys := f.opts.FS
	segs, err := wal.ListSegments(fsys, sh.dir)
	if err != nil {
		return
	}
	removed := false
	for _, idx := range segs {
		if idx < keep {
			if fsys.Remove(wal.SegmentPath(sh.dir, idx)) == nil {
				removed = true
			}
		}
	}
	if removed {
		fsys.SyncDir(sh.dir)
	}
}

// CopySegment implements Peer: install one whole leader segment
// verbatim (catch-up, ascending order after a Reset). Every frame is
// validated and folded; a corrupt stream installs nothing.
func (f *Follower) CopySegment(shard, seg int, data []byte) (Pos, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sh, err := f.shard(shard)
	if err != nil {
		return Pos{}, err
	}
	if seg <= sh.seg {
		return Pos{Seg: sh.seg, Off: sh.off, CRC: sh.crc},
			fmt.Errorf("%w: copy of seg=%d, follower already at seg=%d", ErrOutOfSync, seg, sh.seg)
	}
	// Validate and decode the whole segment before any byte lands.
	var recs []*wal.Record
	for off := int64(0); off < int64(len(data)); {
		frame, ferr := nextFrame(data[off:])
		if frame == nil {
			return Pos{Seg: sh.seg, Off: sh.off, CRC: sh.crc}, fmt.Errorf("%w: %v", ErrCorruptFrame, ferr)
		}
		rec, derr := decodeFrame(frame)
		if derr != nil {
			return Pos{Seg: sh.seg, Off: sh.off, CRC: sh.crc}, fmt.Errorf("%w: %v", ErrCorruptFrame, derr)
		}
		recs = append(recs, rec)
		off += int64(len(frame))
	}
	fsys := f.opts.FS
	name := wal.SegmentPath(sh.dir, seg)
	h, err := fsys.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return Pos{Seg: sh.seg, Off: sh.off, CRC: sh.crc}, err
	}
	abort := func(stage string, err error) (Pos, error) {
		h.Close()
		if rerr := fsys.Remove(name); rerr != nil {
			sh.broken = fmt.Errorf("%w: copy %s failed (%v) and cleanup failed (%v)", ErrShardBroken, stage, err, rerr)
			return Pos{}, sh.broken
		}
		return Pos{Seg: sh.seg, Off: sh.off, CRC: sh.crc}, err
	}
	if _, err := h.Write(data); err != nil {
		return abort("write", err)
	}
	if err := h.Sync(); err != nil {
		return abort("sync", err)
	}
	if err := fsys.SyncDir(sh.dir); err != nil {
		return abort("syncdir", err)
	}
	if sh.f != nil {
		sh.f.Close()
	}
	sh.f = h
	sh.seg, sh.off, sh.crc = seg, int64(len(data)), wal.Checksum(data)
	for _, rec := range recs {
		if err := wal.Fold(sh.sessions, rec); err != nil {
			sh.broken = fmt.Errorf("%w: fold: %v", ErrShardBroken, err)
			return Pos{}, sh.broken
		}
		sh.records++
	}
	return Pos{Seg: sh.seg, Off: sh.off, CRC: sh.crc}, nil
}

// Reset implements Peer: discard the shard's replica state entirely.
// Reset also repairs a broken shard — whatever went wrong locally, a
// full re-mirror from the leader supersedes it.
func (f *Follower) Reset(shard int) (Pos, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted {
		return Pos{}, ErrPromoted
	}
	if shard < 0 || shard >= len(f.shards) {
		return Pos{}, fmt.Errorf("replica: shard %d out of range", shard)
	}
	sh := f.shards[shard]
	if sh.f != nil {
		sh.f.Close()
		sh.f = nil
	}
	fsys := f.opts.FS
	segs, err := wal.ListSegments(fsys, sh.dir)
	if err != nil {
		return Pos{}, fmt.Errorf("%w: %v", ErrShardBroken, err)
	}
	for _, idx := range segs {
		if err := fsys.Remove(wal.SegmentPath(sh.dir, idx)); err != nil {
			sh.broken = fmt.Errorf("%w: reset remove: %v", ErrShardBroken, err)
			return Pos{}, sh.broken
		}
	}
	if err := fsys.SyncDir(sh.dir); err != nil {
		sh.broken = fmt.Errorf("%w: reset syncdir: %v", ErrShardBroken, err)
		return Pos{}, sh.broken
	}
	sh.seg, sh.off, sh.crc = 0, 0, 0
	sh.sessions = map[string]*wal.SessionImage{}
	sh.records = 0
	sh.broken = nil
	return Pos{}, nil
}

// Handoff implements Peer: the leader has drained and caught this
// follower fully up. HandoffReceived turns true; the host decides
// whether to promote on it.
func (f *Follower) Handoff() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted {
		return ErrPromoted
	}
	f.handoff = true
	return nil
}

// HandoffReceived reports whether the leader has handed off.
func (f *Follower) HandoffReceived() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.handoff
}

// Promote seals the follower for serving: every shard's tail is
// fsynced and its handle closed, and all further replication traffic
// is refused with ErrPromoted. The caller then opens the directory
// with server.Open, which re-scans it (truncate-repairing any torn
// record a crashed follower left) and serves the recovered sessions.
func (f *Follower) Promote() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted {
		return nil
	}
	var first error
	for _, sh := range f.shards {
		if sh.f == nil {
			continue
		}
		if err := sh.f.Sync(); err != nil && first == nil {
			first = fmt.Errorf("replica: sealing shard tail: %w", err)
		}
		if err := sh.f.Close(); err != nil && first == nil {
			first = err
		}
		sh.f = nil
	}
	if first != nil {
		return first
	}
	f.promoted = true
	return nil
}

// Promoted reports whether Promote has completed.
func (f *Follower) Promoted() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.promoted
}

// ShardStatus is one shard's replica position for readiness reporting.
type ShardStatus struct {
	Shard    int    `json:"shard"`
	Seg      int    `json:"seg"`
	Off      int64  `json:"off"`
	Records  int64  `json:"records"`
	Sessions int    `json:"sessions"`
	Broken   bool   `json:"broken,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Status snapshots every shard's replica position.
func (f *Follower) Status() []ShardStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]ShardStatus, len(f.shards))
	for i, sh := range f.shards {
		out[i] = ShardStatus{
			Shard:    i,
			Seg:      sh.seg,
			Off:      sh.off,
			Records:  sh.records,
			Sessions: len(sh.sessions),
		}
		if sh.broken != nil {
			out[i].Broken = true
			out[i].Error = sh.broken.Error()
		}
	}
	return out
}

// Sessions returns a deep copy of one shard's folded session images —
// the test-side oracle for "the follower holds exactly the leader's
// durable sessions".
func (f *Follower) Sessions(shard int) map[string]*wal.SessionImage {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := map[string]*wal.SessionImage{}
	if shard < 0 || shard >= len(f.shards) {
		return out
	}
	for id, img := range f.shards[shard].sessions {
		out[id] = img.Clone()
	}
	return out
}

// Dir returns the follower's data directory.
func (f *Follower) Dir() string { return f.opts.Dir }
