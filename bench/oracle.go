package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/constraint"
	"repro/internal/dddl"
	"repro/internal/dpm"
	"repro/internal/loadgen"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/teamsim"
)

// Bench-side oracle: concurrent executions judged against a sequential
// specification. A session's served final state must equal, byte for
// byte, the snapshot of a fresh single-threaded teamsim.Session that
// applied exactly the session's acknowledged batches in order.
//
// It differs from loadgen.CheckOracle in two ways. The scenario is
// built from the workload's own spec, not from the name the server
// echoes (which for sparse:1000 is "sparse_1000_s1" and does not
// resolve — see BENCHMARK.json notes). And sessions of one program
// share their replay: the programs repeat, so each distinct
// acknowledged prefix is replayed once, which keeps the oracle at a
// fraction of the serving work even on serve-large.

// checkSessions judges every session and returns the sessions whose
// served state diverged, with one description each.
func checkSessions(spec string, sessions []*sessionRec) (bad map[*sessionRec]string, checked int, err error) {
	scn, err := scenario.ByName(spec)
	if err != nil {
		return nil, 0, fmt.Errorf("oracle: %w", err)
	}
	bad = map[*sessionRec]string{}
	// Group sessions by program script, then by acknowledged step list.
	byProg := map[scriptKey][]*sessionRec{}
	for _, s := range sessions {
		switch {
		case s.createFailed:
			bad[s] = "create failed"
		case len(s.final) == 0:
			bad[s] = "no state read succeeded"
		default:
			k := scriptKey{&s.prog.Steps[0], s.maxOps}
			byProg[k] = append(byProg[k], s)
		}
		if gap := firstGap(s.eventIDs); gap != 0 {
			bad[s] = fmt.Sprintf("event stream skipped id %d", gap)
		}
	}
	for _, group := range byProg {
		// Shorter acknowledged lists first: when one list extends the
		// previous, the replay continues instead of starting over.
		sort.SliceStable(group, func(i, j int) bool { return len(group[i].acked) < len(group[j].acked) })
		var rp *replay
		for _, s := range group {
			if rp == nil || !rp.extends(s.acked) {
				if rp, err = newReplay(scn, s); err != nil {
					return nil, checked, err
				}
			}
			if msg := rp.judge(s); msg != "" {
				if _, already := bad[s]; !already {
					bad[s] = msg
				}
			}
			checked++
		}
	}
	return bad, checked, nil
}

// scriptKey identifies a program's script within one workload run:
// programs that share their step list (every client of serve-large
// plays the same one) share a replay.
type scriptKey struct {
	steps  *loadgen.Step
	maxOps int
}

// firstGap returns the first id missing from a stream that must count
// 1, 2, 3, ...; 0 when there is none.
func firstGap(ids []int) int {
	for i, id := range ids {
		if id != i+1 {
			return i + 1
		}
	}
	return 0
}

// replay is one sequential engine session advanced through a program's
// acknowledged steps.
type replay struct {
	sess    *teamsim.Session
	applied []int
	// broken marks a replay a rejected step left half-advanced; nothing
	// extends it.
	broken bool
}

func newReplay(scn *dddl.Scenario, s *sessionRec) (*replay, error) {
	mode := dpm.ADPM
	if s.prog.Mode == "conventional" {
		mode = dpm.Conventional
	}
	sess, err := teamsim.NewSession(scn, mode, s.maxOps, constraint.PropagateOptions{})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return &replay{sess: sess}, nil
}

// extends reports whether acked continues what the replay has applied.
func (r *replay) extends(acked []int) bool {
	if r.broken || len(acked) < len(r.applied) {
		return false
	}
	for i, a := range r.applied {
		if acked[i] != a {
			return false
		}
	}
	return true
}

// judge advances the replay to s's acknowledged steps and compares
// snapshots; "" means the served state is exactly the oracle's.
func (r *replay) judge(s *sessionRec) string {
	for _, i := range s.acked[len(r.applied):] {
		for _, op := range s.prog.Steps[i].EngineOps {
			if _, err := r.sess.Apply(op); err != nil {
				r.broken = true
				return fmt.Sprintf("oracle rejected acknowledged step %d: %v", i, err)
			}
		}
		r.applied = append(r.applied, i)
	}
	want, err := json.Marshal(server.SnapshotSession(s.id, s.scenario, r.sess))
	if err != nil {
		return err.Error()
	}
	// The served body carries the encoder's trailing newline; pass it
	// through the same struct before comparing bytes.
	var served server.StateResponse
	if err := json.Unmarshal(s.final, &served); err != nil {
		return "served state does not parse: " + err.Error()
	}
	got, err := json.Marshal(&served)
	if err != nil {
		return err.Error()
	}
	if !bytes.Equal(want, got) {
		return fmt.Sprintf("state diverged after %d acknowledged batches", len(s.acked))
	}
	return ""
}
