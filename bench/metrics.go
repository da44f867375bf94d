package main

// Metric declarations. BENCHMARK.json at the repository root carries
// the same names, units, directions and bounds for the driver;
// TestBenchmarkJSONAgrees keeps the two in step.

// metricDef declares one metric of the benchmark.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median an end-to-end metric may worsen; 0 for per-layer metrics
	// On names what produces a per-layer metric: one workload, "serve"
	// (the four serving workloads) or "all". The driver's result line
	// carries every metric from every workload, so there the others read
	// 0; results.json and the printed tables leave them out.
	On string
}

// on reports whether workload w produces the metric.
func (d metricDef) on(w *workload) bool {
	switch d.On {
	case "", "all":
		return true
	case "serve":
		return w.Stack != "library"
	}
	return d.On == w.Name
}

// Metric is one measured value. N is the number of samples behind a
// quantile (0 where the value is not a quantile).
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// endToEnd lists what a user of the system sees, measured against the
// child processes with tracing off. The driver wants every metric from
// every workload, none that is ever 0, and a benchmark whose ten runs of
// one commit spread by less than each metric's bound, which is at most
// 25%, on every workload. That rules out as declared metrics:
//   - what one workload alone has: deliver_* (serve-watch), run_p50_ms
//     (sim-corpus); and fail_frac, which is 0;
//   - state_p50_ms and create_p50_ms: serve-large reads its state 54
//     times and creates six sessions in a run, half of them while the
//     other client's operation has both cores, and over sets of ten runs
//     their medians spread by 15 to 18%;
//   - ops_p99_ms: serve-large finishes about 450 ops in a run, which
//     leaves four samples beyond p99, and on serve-durable it moved by
//     32% between runs of one commit. The tail is p95.
//
// All of them are measured, printed beside the declared ones and
// written to results.json (e2eResult.Extra).
//
// The bounds are set from the spreads this box shows, not from what the
// issue hoped for (10% on rates and medians): over ten runs the
// quartile distance reached 20% of the median on serve-small's
// ops_per_s in a noisy quarter hour, and 5% on sim-corpus, which is
// single-threaded and identical from run to run. A tighter bound would
// reject the parent against itself. One bound covers a metric on all
// five workloads, so the noisiest workload sets it.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "ops_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "slo_ok_frac", Unit: "frac", Better: "higher", Bound: 0.01},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer lists the single-layer metrics; the module name before the
// dot is the layer. They carry no bound. Each direct-call probe runs
// under the one workload whose end-to-end numbers it should move; the
// span- and gauge-derived ones come from that workload's own serial
// run. wal.*, replica.* and cluster.* are measured on every serving
// workload: on the memory stacks they must read 0.
var perLayer = []metricDef{
	{Name: "interval.mul_ns", Unit: "ns", Better: "lower", On: "sim-corpus"},
	{Name: "expr.revise_ns", Unit: "ns", Better: "lower", On: "sim-corpus"},

	{Name: "constraint.propagate_small_us", Unit: "us", Better: "lower", On: "sim-corpus"},
	{Name: "constraint.propagate_large_us", Unit: "us", Better: "lower", On: "serve-large"},
	{Name: "constraint.evals_per_propagate_large", Unit: "count", Better: "lower", On: "serve-large"},
	{Name: "constraint.clone_large_us", Unit: "us", Better: "lower", On: "serve-large"},

	{Name: "dpm.apply_small_us", Unit: "us", Better: "lower", On: "serve-watch"},
	{Name: "dpm.apply_large_us", Unit: "us", Better: "lower", On: "serve-large"},
	{Name: "dpm.propagate_share_large", Unit: "frac", Better: "lower", On: "serve-large"},
	{Name: "dpm.window_share_large", Unit: "frac", Better: "lower", On: "serve-large"},
	{Name: "dpm.evals_per_op_small", Unit: "count", Better: "lower", On: "serve-watch"},
	{Name: "dpm.evals_per_op_large", Unit: "count", Better: "lower", On: "serve-large"},

	{Name: "teamsim.new_session_small_us", Unit: "us", Better: "lower", On: "serve-small"},
	{Name: "teamsim.new_session_large_us", Unit: "us", Better: "lower", On: "serve-large"},
	{Name: "teamsim.designer_share", Unit: "frac", Better: "lower", On: "sim-corpus"},

	{Name: "server.apply_direct_us", Unit: "us", Better: "lower", On: "serve-small"},
	{Name: "server.handler_us", Unit: "us", Better: "lower", On: "serve-small"},
	{Name: "server.codec_us", Unit: "us", Better: "lower", On: "serve-small"},
	{Name: "server.self_us", Unit: "us", Better: "lower", On: "serve"},
	{Name: "server.state_hit_us", Unit: "us", Better: "lower", On: "serve-small"},
	{Name: "server.state_miss_us", Unit: "us", Better: "lower", On: "serve-small"},
	{Name: "server.state_hit_frac", Unit: "frac", Better: "higher", On: "serve"},
	{Name: "server.rejected", Unit: "count", Better: "lower", On: "serve"},

	{Name: "wal.write_us", Unit: "us", Better: "lower", On: "serve"},
	{Name: "wal.fsync_us", Unit: "us", Better: "lower", On: "serve"},
	{Name: "wal.fsyncs_per_op", Unit: "count", Better: "lower", On: "serve"},
	{Name: "wal.bytes_per_op", Unit: "B", Better: "lower", On: "serve"},
	{Name: "wal.busy_frac", Unit: "frac", Better: "lower", On: "serve"},
	{Name: "wal.rotations", Unit: "count", Better: "lower", On: "serve"},

	{Name: "replica.ship_us", Unit: "us", Better: "lower", On: "serve"},
	{Name: "replica.ship_self_us", Unit: "us", Better: "lower", On: "serve"},
	{Name: "replica.follower_append_us", Unit: "us", Better: "lower", On: "serve"},
	{Name: "replica.follower_fsync_us", Unit: "us", Better: "lower", On: "serve"},
	{Name: "replica.ships_per_op", Unit: "count", Better: "lower", On: "serve"},
	{Name: "replica.bytes_per_op", Unit: "B", Better: "lower", On: "serve"},
	{Name: "replica.lag_records", Unit: "count", Better: "lower", On: "serve"},

	{Name: "cluster.proxy_self_us", Unit: "us", Better: "lower", On: "serve"},
	{Name: "cluster.hop_us", Unit: "us", Better: "lower", On: "serve"},
	{Name: "cluster.redirects", Unit: "count", Better: "lower", On: "serve"},
	{Name: "cluster.owner_ns", Unit: "ns", Better: "lower", On: "serve-durable"},

	{Name: "notify.publish_ns", Unit: "ns", Better: "lower", On: "serve-watch"},
	{Name: "notify.deliver_inproc_us", Unit: "us", Better: "lower", On: "serve-watch"},
	{Name: "notify.events_per_op", Unit: "count", Better: "lower", On: "serve-watch"},
	{Name: "notify.dropped_frac", Unit: "frac", Better: "lower", On: "serve-watch"},

	{Name: "loadgen.transport_us", Unit: "us", Better: "lower", On: "serve"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower", On: "serve-watch"},
	{Name: "loadgen.ops_p99_ms", Unit: "ms", Better: "lower", On: "serve"},
	{Name: "loadgen.create_p50_ms", Unit: "ms", Better: "lower", On: "serve"},
	{Name: "loadgen.state_p50_ms", Unit: "ms", Better: "lower", On: "serve"},
	{Name: "loadgen.state_p99_ms", Unit: "ms", Better: "lower", On: "serve"},
	{Name: "loadgen.deliver_p50_ms", Unit: "ms", Better: "lower", On: "serve-watch"},
	{Name: "loadgen.deliver_p99_ms", Unit: "ms", Better: "lower", On: "serve-watch"},
	{Name: "loadgen.run_p50_ms", Unit: "ms", Better: "lower", On: "sim-corpus"},

	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower", On: "all"},
	{Name: "trace.apply_share", Unit: "frac", Better: "lower", On: "all"},
	{Name: "trace.durable_share", Unit: "frac", Better: "lower", On: "serve"},
}

// metricSet maps names to measured values.
type metricSet map[string]Metric

// set stores a value under a declared name, taking the unit from the
// declaration so a typo cannot invent a metric.
func (m metricSet) set(defs []metricDef, name string, v float64, n int) {
	for _, d := range defs {
		if d.Name == name {
			m[name] = Metric{Value: v, Unit: d.Unit, N: n}
			return
		}
	}
	panic("adpmbench: undeclared metric " + name)
}
