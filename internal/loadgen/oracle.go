package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/constraint"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/teamsim"
)

// OracleResult summarizes the sequential cross-check of a load run.
type OracleResult struct {
	// Sessions is the number of executed program instances.
	Sessions int `json:"sessions"`
	// Checked counts sessions fully cross-checked against the oracle.
	Checked int `json:"checked"`
	// Skipped counts sessions with nothing to check: create rejected
	// under backpressure, or no successful final state read.
	Skipped int `json:"skipped"`
	// Mismatches describes every divergence found; empty means the
	// concurrent server behaved exactly like the sequential model.
	Mismatches []string `json:"mismatches,omitempty"`
}

// OK reports whether the check ran clean.
func (o *OracleResult) OK() bool { return len(o.Mismatches) == 0 }

// CheckOracle validates a load run against a deterministic sequential
// oracle. The invariant: a hosted session's state is exactly its acked
// (200, non-replayed) batches applied in order — whatever 429s, retries,
// or concurrent interleavings happened on the wire. For each session the
// oracle replays the acked engine ops into a fresh single-threaded
// teamsim.Session and compares server.SnapshotSession byte-for-byte
// (after JSON normalization) against the state the server actually
// served. This is the CSM verification move: concurrent executions
// judged against a sequential specification.
func CheckOracle(res *RunResult) (*OracleResult, error) {
	out := &OracleResult{Sessions: len(res.Sessions)}
	for _, st := range res.Sessions {
		if st.CreateFailed || len(st.FinalState) == 0 {
			out.Skipped++
			continue
		}
		if err := checkSession(st); err != nil {
			out.Mismatches = append(out.Mismatches,
				fmt.Sprintf("session %s (client %d, ordinal %d): %v",
					st.ID, st.Program.Client, st.Program.Ordinal, err))
		} else {
			out.Checked++
		}
	}
	return out, nil
}

func checkSession(st *SessionTrace) error {
	// Resolve the scenario from the program's own spec: the name the
	// server echoes is the scenario document's (sparse_200_s1 for the
	// spec sparse:200), which only the snapshot below carries.
	scn, err := scenario.ByName(st.Program.Scenario)
	if err != nil {
		return err
	}
	mode, err := parseMode(st.Program.Mode)
	if err != nil {
		return err
	}
	sess, err := teamsim.NewSession(scn, mode, st.MaxOps, constraint.PropagateOptions{})
	if err != nil {
		return err
	}
	for bi, batch := range st.Acked {
		for oi, op := range batch {
			if _, err := sess.Apply(op); err != nil {
				return fmt.Errorf("oracle replay diverged: acked batch %d op %d rejected: %v", bi, oi, err)
			}
		}
	}
	want, err := json.Marshal(server.SnapshotSession(st.ID, st.Scenario, sess))
	if err != nil {
		return err
	}
	// Normalize the served body (it carries the encoder's trailing
	// newline) through the same struct before comparing bytes.
	var served server.StateResponse
	if err := json.Unmarshal(st.FinalState, &served); err != nil {
		return fmt.Errorf("served state does not parse: %v", err)
	}
	got, err := json.Marshal(&served)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("state divergence after %d acked batches:\n  oracle: %s\n  served: %s",
			len(st.Acked), want, got)
	}
	return nil
}
