package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/dpm"
	"repro/internal/loadgen"
	"repro/internal/scenario"
	"repro/internal/server"
)

// workload is one named traffic mix. The names are fixed: later issues
// cite them.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// Stack is what serves it: "library" (no process at all), "memory"
	// (one adpmd, default flags) or "durable" (adpmproxy in front of a
	// quorum leader/follower pair).
	Stack string
	// Scenario is the scenario spec sessions are created from.
	Scenario string
	// OpenLoop marks the designer-and-subscriber workload that sends on
	// an absolute schedule.
	OpenLoop bool
	// Limit is the fixed latency limit slo_ok_frac is taken against.
	Limit time.Duration
}

var workloads = []workload{
	{
		Name:  "sim-corpus",
		Why:   "the paper's own experiment, library only: designer+dcm+solver+dpm+constraint on paper-size networks, no serving layer, so engine changes show here and serving changes must not",
		Stack: "library",
		Limit: 10 * time.Millisecond,
	},
	{
		Name:     "serve-small",
		Why:      "one adpmd in memory on the simplified scenario: ~20us of engine per op, so HTTP, mux, mailbox, create and state serialisation do most of the work; wal/replica/cluster do nothing",
		Stack:    "memory",
		Scenario: "simplified",
		Limit:    10 * time.Millisecond,
	},
	{
		Name:     "serve-large",
		Why:      "one adpmd in memory on sparse:1000: propagate plus per-variable window refresh cost ~1000x the serving path, so dpm/constraint do nearly all the work and serving changes must show nothing",
		Stack:    "memory",
		Scenario: "sparse:1000",
		Limit:    250 * time.Millisecond,
	},
	{
		Name:     "serve-durable",
		Why:      "adpmproxy in front of a quorum pair with the byte-identical programs of serve-small: the difference is the marginal cost of wal fsync, replica ship and the proxy hop",
		Stack:    "durable",
		Scenario: "simplified",
		Limit:    20 * time.Millisecond,
	},
	{
		Name:     "serve-watch",
		Why:      "open loop well under capacity on receiver: one designer writing a little and reading a lot beside one SSE subscriber, so a write-path gain that costs readers or subscribers shows",
		Stack:    "memory",
		Scenario: "receiver",
		OpenLoop: true,
		Limit:    10 * time.Millisecond,
	},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// clientCount is C: one generator process, min(nproc, 4) connections
// in total.
func clientCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// Open-loop schedule of serve-watch: one 1-op batch per cycle and a
// state read a quarter, a half and three quarters of a cycle later.
// The issue's 20ms cycle is shortened by the same 3/4 as the run
// length (20s -> 15s), which keeps 1000 ops samples in a run.
const watchCycle = 15 * time.Millisecond

// Program-set sizes, and the seed the set is drawn with. Every
// workload seed plays the same programs; it decides the order each
// client plays them in. A fresh draw per seed is not used because on
// receiver the draws differ by 12% in engine time per op (at equal
// evaluation counts), which is the size of the regression bounds; on
// simplified every history is four operations long whatever the seed.
const (
	sessionsPerClient = 64
	historyPool       = 32
	programSeed       = 1
)

// shortLargeSize is the network serve-large plays in the smoke test,
// where an op has to cost milliseconds for a one-second run to hold a
// whole session.
const shortLargeSize = 200

// buildPrograms derives the workload's client programs from the seed:
// the same seed gives byte-identical request bodies. progs[c] is client
// c's program list; the string is the scenario spec the sessions are
// created from.
func buildPrograms(w *workload, seed int64, clients int, short bool) ([][]loadgen.Program, string, error) {
	sessions, pool := sessionsPerClient, historyPool
	if short {
		sessions, pool = 8, 4 // deriving a receiver history costs 20ms
	}
	switch w.Name {
	case "serve-small", "serve-durable":
		all, err := loadgen.BuildPrograms(loadgen.Workload{
			Scenario: w.Scenario, Seed: programSeed, Clients: clients, SessionsPerClient: sessions,
			BatchSize: 2, StateEvery: 2, RetryFrac: 0.1, DeleteFrac: 1, HistoryPool: pool,
		})
		return splitByClient(all, clients, seed), w.Scenario, err
	case "serve-watch":
		all, err := loadgen.BuildPrograms(loadgen.Workload{
			Scenario: w.Scenario, Seed: programSeed, Clients: 1, SessionsPerClient: sessions,
			BatchSize: 1, StateEvery: -1, HistoryPool: pool / 2, // a receiver history costs 20ms to derive
		})
		return splitByClient(all, 1, seed), w.Scenario, err
	case "serve-large":
		// The network is always the generator's seed-1 instance (what the
		// spec "sparse:1000" resolves to on the server); the workload seed
		// orders the script. Networks of different generator seeds differ
		// by +-5% in cost per op, which would pass for a regression.
		size, spec := 1000, w.Scenario
		if short {
			size, spec = shortLargeSize, fmt.Sprintf("sparse:%d", shortLargeSize)
		}
		sn, err := scenario.Scale("sparse", size, 1)
		if err != nil {
			return nil, "", err
		}
		ops := reorderScript(sn.Ops, seed)
		prog := loadgen.Program{Scenario: spec, Mode: "ADPM", MaxOps: len(ops)}
		prog.Steps = append(prog.Steps, loadgen.Step{Kind: loadgen.StepCreate})
		for i, op := range ops {
			prog.Steps = append(prog.Steps, loadgen.Step{
				Kind:      loadgen.StepOps,
				Ops:       []server.WireOp{server.WireFromOperation(op)},
				EngineOps: ops[i : i+1],
				Key:       fmt.Sprintf("b%d", i),
			})
			if (i+1)%8 == 0 || i == len(ops)-1 {
				prog.Steps = append(prog.Steps, loadgen.Step{Kind: loadgen.StepState})
			}
		}
		prog.Steps = append(prog.Steps, loadgen.Step{Kind: loadgen.StepDelete})
		out := make([][]loadgen.Program, clients)
		for c := range out {
			p := prog
			p.Client = c
			out[c] = []loadgen.Program{p}
		}
		return out, spec, nil
	}
	return nil, "", fmt.Errorf("adpmbench: workload %q has no programs", w.Name)
}

// reorderScript shuffles the script's syntheses with the seed and
// re-inserts a whole-problem verification after every eighth, as the
// generator does. Every synthesis binds a property to its witness
// value, so any order is a valid design process.
func reorderScript(script []dpm.Operation, seed int64) []dpm.Operation {
	var synth []dpm.Operation
	for _, op := range script {
		if op.Kind == dpm.OpSynthesis {
			synth = append(synth, op)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(synth), func(i, j int) { synth[i], synth[j] = synth[j], synth[i] })
	out := make([]dpm.Operation, 0, len(script))
	for i, op := range synth {
		out = append(out, op)
		if i%8 == 7 {
			out = append(out, dpm.Operation{Kind: dpm.OpVerification, Problem: op.Problem, Designer: op.Designer})
		}
	}
	return out
}

// splitByClient gives each client its programs, in the order the
// workload seed shuffles them into.
func splitByClient(all []loadgen.Program, clients int, seed int64) [][]loadgen.Program {
	out := make([][]loadgen.Program, clients)
	for _, p := range all {
		out[p.Client] = append(out[p.Client], p)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, progs := range out {
		rng.Shuffle(len(progs), func(i, j int) { progs[i], progs[j] = progs[j], progs[i] })
	}
	return out
}
