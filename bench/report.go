package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// envStamp says where and on what a results file was measured.
type envStamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Kernel     string  `json:"kernel"`
	DataDirFS  string  `json:"data_dir_fs"`
	Seed       int64   `json:"seed"`
	Clients    int     `json:"clients"`
	BuildS     float64 `json:"build_s"`
	When       string  `json:"when"`
}

// resultsFile is bench/out/results.json.
type resultsFile struct {
	Stamp     envStamp         `json:"stamp"`
	Seconds   float64          `json:"run_seconds"`
	Workloads []workloadResult `json:"workloads"`
}

func stamp(cfg *config, build time.Duration) envStamp {
	s := envStamp{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Kernel: "unknown", DataDirFS: fsType(cfg.tmp), Seed: cfg.seed,
		Clients: clientCount(), BuildS: build.Seconds(), When: time.Now().UTC().Format(time.RFC3339),
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = cfg.root
	if out, err := cmd.Output(); err == nil { // a driver checkout is not a git repository
		s.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		s.Kernel = strings.TrimSpace(string(b))
	}
	return s
}

// fsType names the filesystem under dir: fsync latency is a property of
// it, not of the program.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printMetrics prints one line per metric, in declaration order, then
// any others sorted by name; a quantile shows its sample count.
func printMetrics(w io.Writer, defs []metricDef, m metricSet) {
	seen := map[string]bool{}
	line := func(name string, v Metric) {
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("  (n=%d)", v.N)
		}
		fmt.Fprintf(w, "  %-38s %14.6g %-6s%s\n", name, v.Value, v.Unit, n)
	}
	for _, d := range defs {
		if v, ok := m[d.Name]; ok {
			line(d.Name, v)
			seen[d.Name] = true
		}
	}
	var rest []string
	for name := range m {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		line(name, m[name])
	}
}

// printWorkload prints everything one workload produced.
func printWorkload(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "\n== %s (seed %d) ==\n", r.Workload, r.Seed)
	if e := r.E2E; e != nil {
		fmt.Fprintf(w, " end to end: %d requests attempted, %d failed, %d ops acknowledged", e.Attempted, e.Failed, e.Ops)
		if e.Sessions > 0 {
			fmt.Fprintf(w, ", oracle checked %d of %d sessions", e.Checked, e.Sessions)
		}
		fmt.Fprintln(w)
		printMetrics(w, endToEnd, e.Metrics)
		printMetrics(w, nil, e.Extra)
		if !e.Valid {
			fmt.Fprintf(w, " INVALID RUN: the generator measured itself\n")
		}
		for _, n := range e.Notes {
			fmt.Fprintf(w, "  note: %s\n", n)
		}
	}
	if r.PerLayer != nil {
		fmt.Fprintf(w, " per layer (probes and serial traced run): %d requests attempted, %d failed\n",
			r.TraceAttempted, r.TraceFailed)
		printMetrics(w, perLayer, r.PerLayer)
		fmt.Fprintf(w, " ledger (share of ops request time, self times of the traced run):\n")
		var stages []string
		for name := range r.Ledger {
			stages = append(stages, name)
		}
		sort.Slice(stages, func(i, j int) bool { return r.Ledger[stages[i]] > r.Ledger[stages[j]] })
		for _, name := range stages {
			fmt.Fprintf(w, "  %-38s %13.1f%%\n", name, r.Ledger[name]*100)
		}
		for _, n := range r.TraceNotes {
			fmt.Fprintf(w, "  note: %s\n", n)
		}
	}
}

// pyQuartiles returns the quartiles of vs exactly as Python's
// statistics.quantiles(vs, n=4) does (the default exclusive method),
// which is what the driver's acceptance uses. It needs two values.
func pyQuartiles(vs []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), vs...)
	sort.Float64s(data)
	ld := len(data)
	m := ld + 1
	var q [3]float64
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// isCount reports whether a per-layer metric is a count that must
// repeat exactly between two sets of the same seed.
func isCount(name string) bool {
	return strings.Contains(name, "_per_op") || strings.Contains(name, ".evals_") || name == "cluster.redirects" ||
		name == "wal.rotations" || name == "server.rejected" || name == "replica.lag_records"
}

// repeatRow is one metric of one workload across the sets.
type repeatRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	// Spread is (Q3-Q1)/median; with fewer than four sets, which have no
	// quartiles to speak of, (max-min)/median.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound,omitempty"`
	OK     bool    `json:"ok"`
	Why    string  `json:"why,omitempty"`
}

// judgeSets compares sets of the same seed against the declared bounds:
// every end-to-end metric's spread must stay within its bound (setup_s
// excepted, as in the driver's acceptance), no run may fail, slo_ok_frac
// must reach 0.99 in every set, and the count metrics must repeat
// exactly. The spread is the quartile distance over the median, as the
// driver takes it; two or three sets have no quartiles, so there it is
// the whole range over the median.
func judgeSets(sets [][]workloadResult) (rows []repeatRow, agree bool) {
	find := func(set []workloadResult, name string) *workloadResult {
		for i := range set {
			if set[i].Workload == name {
				return &set[i]
			}
		}
		return nil
	}
	agree = true
	for _, w := range workloads {
		collect := func(d metricDef, e2e bool) {
			row := repeatRow{Workload: w.Name, Metric: d.Name, Unit: d.Unit, Bound: d.Bound, OK: true}
			for _, set := range sets {
				r := find(set, w.Name)
				if r == nil {
					continue
				}
				m := r.PerLayer
				if e2e {
					m = nil
					if r.E2E != nil {
						m = r.E2E.Metrics
					}
				}
				if v, ok := m[d.Name]; ok {
					row.Values = append(row.Values, v.Value)
				}
			}
			if len(row.Values) < 2 {
				return
			}
			sorted := append([]float64(nil), row.Values...)
			sort.Float64s(sorted)
			row.Q1, row.Median, row.Q3 = pyQuartiles(sorted)
			if len(sorted) < 4 {
				row.Q1, row.Q3 = sorted[0], sorted[len(sorted)-1]
			}
			if row.Median != 0 {
				row.Spread = (row.Q3 - row.Q1) / math.Abs(row.Median)
			}
			if e2e && d.Name != "setup_s" && row.Spread > d.Bound {
				row.OK, row.Why = false, fmt.Sprintf("spread %.3f exceeds bound %.3f", row.Spread, d.Bound)
			}
			if e2e && d.Name == "slo_ok_frac" && sorted[0] < 0.99 {
				row.OK, row.Why = false, fmt.Sprintf("slo_ok_frac %.4f is below 0.99 in one set", sorted[0])
			}
			if !e2e && isCount(d.Name) && sorted[0] != sorted[len(sorted)-1] {
				row.OK, row.Why = false, "count differs between sets of one seed"
			}
			agree = agree && row.OK
			rows = append(rows, row)
		}
		for _, d := range endToEnd {
			collect(d, true)
		}
		for _, d := range perLayer {
			collect(d, false)
		}
		for k, set := range sets {
			if r := find(set, w.Name); r != nil && !r.correct() {
				agree = false
				rows = append(rows, repeatRow{Workload: w.Name, Metric: "fail_frac", Unit: "frac",
					Why: fmt.Sprintf("set %d had failed requests", k+1)})
			}
		}
	}
	return rows, agree
}

// runRepeat runs the whole set n times with one seed, alternating the
// workload order, judges the sets and writes repeat.json.
func runRepeat(cfg *config, n int) int {
	sets := make([][]workloadResult, n)
	for k := range sets {
		fmt.Printf("\n#### set %d of %d (seed %d) ####\n", k+1, n, cfg.seed)
		var err error
		if sets[k], err = runSet(cfg, k%2 == 1); err != nil {
			fmt.Fprintln(os.Stderr, "adpmbench:", err)
			return 1
		}
	}
	rows, agree := judgeSets(sets)
	fmt.Printf("\n#### %d sets: median [q1 .. q3] spread (bound) ####\n", n)
	for _, r := range rows {
		if r.Bound == 0 && r.OK && !isCount(r.Metric) {
			continue // per-layer timings carry no bound; they are in repeat.json
		}
		verdict := "ok"
		if r.Bound == 0 && r.OK {
			verdict = "ok, the count repeats"
		}
		if !r.OK {
			verdict = "DISAGREE: " + r.Why
		}
		fmt.Printf("  %-14s %-36s %12.6g [%12.6g .. %12.6g] %-6s spread %6.3f (bound %5.3f)  %s\n",
			r.Workload, r.Metric, r.Median, r.Q1, r.Q3, r.Unit, r.Spread, r.Bound, verdict)
	}
	path := filepath.Join(cfg.out, "repeat.json")
	file := struct {
		Stamp   envStamp    `json:"stamp"`
		Seconds float64     `json:"run_seconds"`
		Sets    int         `json:"sets"`
		Agree   bool        `json:"agree"`
		Rows    []repeatRow `json:"rows"`
	}{stamp(cfg, 0), cfg.seconds, n, agree, rows}
	if err := writeJSON(path, &file); err != nil {
		fmt.Fprintln(os.Stderr, "adpmbench:", err)
		return 1
	}
	fmt.Printf("\nwrote %s\n", path)
	if !agree {
		fmt.Println("the sets DISAGREE")
		return 1
	}
	fmt.Println("the sets agree")
	return 0
}
