package server

import (
	"bytes"
	"fmt"

	"repro/internal/wal"
)

// Cross-pair session migration, the generalization of ParkAll's
// park-then-transfer: one session parks, its WAL image ships to the
// destination pair (internal/cluster orchestrates the transfer over the
// internal/replica transport), and ownership flips under a new cluster
// epoch. The protocol's crash-ordering is adopt-before-tombstone:
//
//  1. BeginMigrate parks the session and freezes it (ErrMigrating);
//  2. the orchestrator ships the image and the destination adopts it
//     (AdoptSession — one durable wal.TypeAdopt record);
//  3. CompleteMigrate appends the wal.TypeMoved tombstone here and
//     starts answering with ErrMoved (HTTP 307 + Location).
//
// A crash after (2) but before (3) leaves two durable copies with the
// source still owning — safe, because the frozen source never acked
// anything the destination lacks, and AdoptSession is idempotent (an
// equal-or-longer resident image makes re-adoption a no-op), so the
// orchestrator just re-runs the transfer. A crash before (2) aborts:
// the source recovers the session as parked (BeginMigrate's freeze is
// deliberately volatile — restart = abort).

// MovedError is ErrMoved carrying the forwarding address; the HTTP
// layer renders it as 307 + Location.
type MovedError struct {
	ID string
	// Location is the forwarding address recorded by CompleteMigrate —
	// by convention the destination pair's client base URL.
	Location string
}

func (e *MovedError) Error() string {
	return fmt.Sprintf("server: session %s moved to %s", e.ID, e.Location)
}

// Is makes errors.Is(err, ErrMoved) hold for MovedError values.
func (e *MovedError) Is(target error) bool { return target == ErrMoved }

// ValidateExternalID checks an externally-minted session id: the "c"
// prefix (the namespace disjoint from server-minted "s<shard>-<seq>"
// ids), a sane length, and a conservative alphabet so ids embed
// cleanly in URLs, WAL records, and trace lines.
func ValidateExternalID(id string) error {
	if len(id) < 2 || len(id) > 64 {
		return fmt.Errorf("%w: external session id must be 2..64 bytes, got %d", ErrInvalid, len(id))
	}
	if id[0] != 'c' {
		return fmt.Errorf("%w: external session id %q must start with %q", ErrInvalid, id, "c")
	}
	for i := 1; i < len(id); i++ {
		c := id[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' {
			continue
		}
		return fmt.Errorf("%w: external session id %q has invalid byte %q", ErrInvalid, id, c)
	}
	return nil
}

// BeginMigrate parks a session (live engine dropped, image retained)
// and freezes it: until CompleteMigrate or AbortMigrate resolves the
// transfer, every request on it answers ErrMigrating. Returns a deep
// copy of the image for the orchestrator to ship. Only durable servers
// can migrate (the image is the WAL's, and the tombstone must be
// loggable).
func (s *Server) BeginMigrate(id string) (*wal.SessionImage, error) {
	sh, err := s.shardFor(id)
	if err != nil {
		return nil, err
	}
	var img *wal.SessionImage
	var merr error
	err = sh.submit(func() {
		if sh.wal == nil {
			merr = fmt.Errorf("%w: migration requires a durable server", ErrInvalid)
			return
		}
		if hs := sh.sessions[id]; hs != nil {
			sh.park(hs)
		}
		p := sh.parked[id]
		if p == nil {
			switch {
			case sh.migrating[id] != nil:
				merr = fmt.Errorf("%w: session %q", ErrMigrating, id)
			case sh.moved[id] != "":
				merr = &MovedError{ID: id, Location: sh.moved[id]}
			default:
				merr = ErrUnknownSession
			}
			return
		}
		delete(sh.parked, id)
		sh.nParked.Store(int64(len(sh.parked)))
		sh.migrating[id] = p
		img = p.img.Clone()
	})
	if err != nil {
		return nil, err
	}
	return img, merr
}

// CompleteMigrate resolves a BeginMigrate by appending the moved
// tombstone: the destination has durably adopted the image, so this
// pair's copy is abandoned and every future request answers ErrMoved
// with the given forwarding location. The park-time summary folds into
// the shard totals — the operations happened here, and the trace
// reconciliation must still see them.
func (s *Server) CompleteMigrate(id, location string) error {
	sh, err := s.shardFor(id)
	if err != nil {
		return err
	}
	var merr error
	err = sh.submit(func() {
		p := sh.migrating[id]
		if p == nil {
			merr = ErrUnknownSession
			return
		}
		if location == "" {
			merr = fmt.Errorf("%w: moved location is required", ErrInvalid)
			return
		}
		if merr = sh.appendWAL(&wal.Record{Type: wal.TypeMoved, Session: id, Location: location}); merr != nil {
			return
		}
		delete(sh.migrating, id)
		sh.moved[id] = location
		sh.nMoved.Store(int64(len(sh.moved)))
		sum := p.sum
		sum.Evicted = true
		sh.fold(sum)
		sh.migrated.Add(1)
	})
	if err != nil {
		return err
	}
	return merr
}

// AbortMigrate unfreezes a session whose transfer failed before the
// destination adopted it: the image returns to the parked set and the
// next touch restores it as if the migration never started.
func (s *Server) AbortMigrate(id string) error {
	sh, err := s.shardFor(id)
	if err != nil {
		return err
	}
	var merr error
	err = sh.submit(func() {
		p := sh.migrating[id]
		if p == nil {
			merr = ErrUnknownSession
			return
		}
		delete(sh.migrating, id)
		sh.parked[id] = p
		sh.nParked.Store(int64(len(sh.parked)))
	})
	if err != nil {
		return err
	}
	return merr
}

// AdoptSession installs a migrated-in image: one durable wal.TypeAdopt
// record, after which the session is parked here (first touch restores
// it by the same replay path recovery uses) and any moved tombstone
// for the id is cleared (a session migrating back home). Idempotent:
// re-adopting an image no longer than the resident copy's history is a
// no-op success, so a migration orchestrator that crashed between
// adopt and tombstone can simply re-run the transfer.
func (s *Server) AdoptSession(img *wal.SessionImage) error {
	if img == nil || img.ID == "" {
		return fmt.Errorf("%w: adopt requires a session image", ErrInvalid)
	}
	if img.Moved != "" {
		return fmt.Errorf("%w: adopt image carries a moved tombstone", ErrInvalid)
	}
	sh, err := s.shardFor(img.ID)
	if err != nil {
		return err
	}
	var merr error
	err = sh.submit(func() {
		if sh.wal == nil {
			merr = fmt.Errorf("%w: adoption requires a durable server", ErrInvalid)
			return
		}
		id := img.ID
		if sh.migrating[id] != nil {
			// This pair is mid-export of the same id; adopting now would
			// fork the history.
			merr = fmt.Errorf("%w: session %q", ErrMigrating, id)
			return
		}
		var residentImg *wal.SessionImage
		if hs := sh.sessions[id]; hs != nil {
			residentImg = hs.img
		} else if p := sh.parked[id]; p != nil {
			residentImg = p.img
		}
		if residentImg != nil {
			resident := len(residentImg.Ops)
			if resident >= len(img.Ops) {
				// Duplicate delivery of a transfer that already landed.
				return
			}
			// A shorter resident copy is a stale leftover of an earlier
			// transfer that was aborted after this pair adopted (the source
			// kept serving and grew the history). Replacing it is safe only
			// when the incoming image extends it — a non-prefix means the
			// histories forked, which no re-transfer may paper over.
			if !prefixOf(residentImg.Ops, img.Ops) {
				merr = fmt.Errorf("%w: adopt of %q diverges from the resident copy (forked history)", ErrInvalid, id)
				return
			}
			if hs := sh.sessions[id]; hs != nil {
				// Drop the stale live engine; the adopted image below
				// replaces its parked form.
				sh.park(hs)
			}
		}
		cp := img.Clone()
		if merr = sh.appendWAL(&wal.Record{Type: wal.TypeAdopt, Sessions: []wal.SessionImage{*cp.Clone()}}); merr != nil {
			return
		}
		delete(sh.moved, id)
		sh.nMoved.Store(int64(len(sh.moved)))
		sh.installParked(cp)
		sh.adopted.Add(1)
		sh.maybeRotate()
	})
	if err != nil {
		return err
	}
	return merr
}

// Adopt makes *Server satisfy internal/replica's Adopter extension, so
// a leader can accept migrated sessions directly over the replica
// transport (cmd/adpmd's -adopt listener).
func (s *Server) Adopt(img *wal.SessionImage) error { return s.AdoptSession(img) }

// prefixOf reports whether the resident batch history is an exact
// prefix of the incoming one (same keys, same op bytes).
func prefixOf(resident, incoming []wal.OpsEntry) bool {
	if len(resident) > len(incoming) {
		return false
	}
	for i := range resident {
		if resident[i].Key != incoming[i].Key || !bytes.Equal(resident[i].Ops, incoming[i].Ops) {
			return false
		}
	}
	return true
}

// installParked registers an image as a parked session (recovery and
// adoption share it). Its scenario label comes from the image's
// template, which the restore on first touch stamps from. Loop goroutine
// only (or the opener, before the loop starts).
func (sh *shard) installParked(img *wal.SessionImage) {
	label := ""
	if t, err := sh.templates.forImage(img); err == nil {
		label = t.Scenario().Name
	}
	sh.parked[img.ID] = &parkedSession{
		img:      img,
		scenario: label,
		sum:      SessionSummary{ID: img.ID, Scenario: label, Mode: img.Mode, Evicted: true},
		lastUsed: sh.now(),
	}
	sh.nParked.Store(int64(len(sh.parked)))
}

// MovedLocation reports the forwarding address of a migrated-away
// session ("" when the id has no tombstone here).
func (s *Server) MovedLocation(id string) string {
	sh, err := s.shardFor(id)
	if err != nil {
		return ""
	}
	var loc string
	_ = sh.submit(func() { loc = sh.moved[id] })
	return loc
}
