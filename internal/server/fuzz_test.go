package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dpm"
)

// FuzzServerOps throws arbitrary bodies at the op-batch endpoint of a
// live durable server and checks the hard invariants the batch path
// promises, interleaving a crash/recover cycle mid-corpus:
//
//  1. no panic and no 500 — a 500 would mean a validated operation
//     failed to apply, i.e. dpm.Validate's error set has a hole and the
//     "atomic without rollback" argument is broken;
//  2. any non-200 response leaves the session state byte-identical
//     (serialized bindings, movement windows, metrics);
//  3. after a hard crash (the data dir copied as the dead process left
//     it) a fresh server recovers the session byte-identical, still
//     never answers 500, and a retry of the same keyed batch is a
//     cached no-op ack.
func FuzzServerOps(f *testing.F) {
	seeds := []string{
		`{"ops":[{"kind":"synthesis","problem":"AmpDesign","assignments":[{"prop":"Width","value":3}]}]}`,
		`{"ops":[{"kind":"synthesis","problem":"AmpDesign","assignments":[{"prop":"Width","value":3},{"prop":"Bias","value":19}]}]}`,
		`{"ops":[{"kind":"verification","problem":"AmpDesign"}]}`,
		`{"ops":[{"kind":"verification","problem":"Top","verify":["MaxPower"]}]}`,
		`{"ops":[{"kind":"decomposition","problem":"Top"}]}`,
		`{"ops":[{"kind":"decomposition","problem":"AmpDesign"}]}`,
		`{"ops":[]}`,
		`{"ops":[{"kind":"synthesis","problem":"AmpDesign","assignments":[{"prop":"Width","value":"oops"}]}]}`,
		`{"ops":[{"kind":"synthesis","problem":"Ghost","assignments":[{"prop":"Width","value":1}]},{"kind":"synthesis","problem":"AmpDesign","assignments":[{"prop":"Ind","value":2}]}]}`,
		`{"ops":[{"kind":"melt","problem":"Top"}]}`,
		`{"ops":[{"kind":"synthesis","problem":"AmpDesign","assignments":[{"prop":"Width","value":null}]}]}`,
		`{"ops":[{"kind":"synthesis","problem":"AmpDesign","assignments":[{"prop":"Width","value":1e308}]},{"kind":"synthesis","problem":"AmpDesign","assignments":[{"prop":"Width","value":-1e308}]}]}`,
		`not json at all`,
		`{"ops": 3}`,
		`{"ops":[{"kind":"synthesis","problem":"AmpDesign"}]} trailing`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		s, err := Open(Options{Shards: 1, MaxOps: 8, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		c, err := s.CreateSession(CreateSpec{Name: "simplified", Mode: dpm.ADPM})
		if err != nil {
			t.Fatal(err)
		}
		before := fuzzState(t, h, c.ID)

		send := func(h http.Handler) *httptest.ResponseRecorder {
			rr := httptest.NewRecorder()
			req := httptest.NewRequest("POST", "/sessions/"+c.ID+"/ops", bytes.NewReader(body))
			req.Header.Set("Idempotency-Key", "fuzz-1")
			h.ServeHTTP(rr, req)
			return rr
		}
		rr := send(h)
		if rr.Code >= 500 {
			t.Fatalf("op batch answered %d — validated-batch invariant broken: %s\nbody: %q",
				rr.Code, rr.Body, body)
		}
		after := fuzzState(t, h, c.ID)
		if rr.Code != http.StatusOK && !bytes.Equal(before, after) {
			t.Fatalf("rejected batch (status %d) mutated session state\nbody: %q\nbefore: %s\nafter:  %s",
				rr.Code, body, before, after)
		}

		// Crash mid-corpus: under SyncAlways every acknowledged record is
		// already on disk, so a raw copy of the data dir is exactly what a
		// killed process would leave behind. Recover from it and re-check
		// every invariant.
		crashDir := cloneDataDir(t, dir)
		s.Drain()
		s2, err := Open(Options{Shards: 1, MaxOps: 8, DataDir: crashDir})
		if err != nil {
			t.Fatalf("recovery open after crash: %v\nbody: %q", err, body)
		}
		defer s2.Drain()
		h2 := s2.Handler()
		if got := fuzzState(t, h2, c.ID); !bytes.Equal(got, after) {
			t.Fatalf("crash recovery lost or invented state\nbody: %q\npre-crash: %s\nrecovered: %s",
				body, after, got)
		}
		rr2 := send(h2)
		if rr2.Code >= 500 {
			t.Fatalf("post-recovery retry answered %d: %s\nbody: %q", rr2.Code, rr2.Body, body)
		}
		if rr.Code == http.StatusOK {
			// The accepted batch's key survived the crash: the retry must be
			// a cached ack, not a second application.
			if rr2.Code != http.StatusOK || rr2.Header().Get("Idempotent-Replay") != "true" {
				t.Fatalf("keyed retry after crash not replayed (status %d, replay %q)\nbody: %q",
					rr2.Code, rr2.Header().Get("Idempotent-Replay"), body)
			}
		}
		if got := fuzzState(t, h2, c.ID); !bytes.Equal(got, after) {
			t.Fatalf("post-recovery retry mutated state\nbody: %q\nwant: %s\ngot:  %s", body, after, got)
		}
	})
}

// cloneDataDir copies a durable server's data dir byte-for-byte — the
// crash image a killed process leaves behind.
func cloneDataDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// FuzzCreateSession throws arbitrary bodies at session creation —
// including arbitrary DDDL source text reaching the parser and network
// builder — and checks that the server either creates a servable
// session (201 whose id answers GET state) or rejects cleanly with a
// 4xx, never panicking or answering 500. A second create of the same
// scenario (stamped from the template the first one built) must serve
// byte-identical state, id aside.
func FuzzCreateSession(f *testing.F) {
	seeds := []string{
		`{"scenario":"simplified"}`,
		`{"scenario":"receiver","mode":"conventional","max_ops":10}`,
		`{"scenario":"sensor","mode":"ADPM"}`,
		`{"scenario":"nope"}`,
		`{"source":"scenario T\nproperty X continuous [0, 1]\nproblem Top owner a { outputs { X } }"}`,
		`{"source":"problem {{{"}`,
		`{"source":"scenario T"}`,
		`{"mode":"ADPM"}`,
		`{"scenario":"simplified","source":"x"}`,
		`{"max_ops":-5,"scenario":"simplified"}`,
		`[]`,
		`{"scenario":"simplified"`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Options{Shards: 1, MaxOps: 8})
		defer s.Drain()
		h := s.Handler()

		rr := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/sessions", bytes.NewReader(body))
		h.ServeHTTP(rr, req)
		if rr.Code >= 500 {
			t.Fatalf("create answered %d: %s\nbody: %q", rr.Code, rr.Body, body)
		}
		if rr.Code == http.StatusCreated {
			var c CreateResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &c); err != nil {
				t.Fatalf("201 with unparsable body: %v", err)
			}
			st := httptest.NewRecorder()
			h.ServeHTTP(st, httptest.NewRequest("GET", "/sessions/"+c.ID+"/state", nil))
			if st.Code != http.StatusOK {
				t.Fatalf("created session %q does not serve state: %d", c.ID, st.Code)
			}

			// The same request again, minus any client-minted id (which
			// would now collide).
			var req CreateRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("201 for a body that does not decode: %v", err)
			}
			req.ID = ""
			again, _ := json.Marshal(req)
			rr2 := httptest.NewRecorder()
			h.ServeHTTP(rr2, httptest.NewRequest("POST", "/sessions", bytes.NewReader(again)))
			if rr2.Code != http.StatusCreated {
				t.Fatalf("second create answered %d: %s\nbody: %q", rr2.Code, rr2.Body, again)
			}
			var c2 CreateResponse
			if err := json.Unmarshal(rr2.Body.Bytes(), &c2); err != nil {
				t.Fatalf("201 with unparsable body: %v", err)
			}
			if a, b := stateSansID(t, s, c.ID), stateSansID(t, s, c2.ID); !bytes.Equal(a, b) {
				t.Fatalf("second create of the same scenario differs:\n%s\n%s", a, b)
			}
		}
	})
}

// fuzzState fetches the serialized session state via the HTTP stack.
func fuzzState(t *testing.T, h http.Handler, id string) []byte {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/sessions/"+id+"/state", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("state: status %d", rr.Code)
	}
	return rr.Body.Bytes()
}
