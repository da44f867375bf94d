package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// proc is one child process under test.
type proc struct {
	name   string
	cmd    *exec.Cmd
	stderr bytes.Buffer
}

// system is the set of processes a serving workload runs against.
type system struct {
	procs []*proc
	// base is the URL clients talk to (adpmd, or adpmproxy in front).
	base string
	// dataDirs are removed when the system stops.
	dataDirs []string
	// cmdlines are the exact child command lines, for the results stamp.
	cmdlines []string
}

// live tracks every running system so an exit path that skips the
// normal teardown (signal, panic) still kills the children.
var live struct {
	sync.Mutex
	systems map[*system]bool
}

func trackSystem(s *system, on bool) {
	live.Lock()
	defer live.Unlock()
	if live.systems == nil {
		live.systems = map[*system]bool{}
	}
	if on {
		live.systems[s] = true
	} else {
		delete(live.systems, s)
	}
}

// killAll stops every tracked system; safe to call more than once.
func killAll() {
	live.Lock()
	var all []*system
	for s := range live.systems {
		all = append(all, s)
	}
	live.Unlock()
	for _, s := range all {
		s.stop()
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

func freeAddrs(n int) ([]string, error) {
	out := make([]string, n)
	for i := range out {
		p, err := freePort()
		if err != nil {
			return nil, err
		}
		out[i] = "127.0.0.1:" + strconv.Itoa(p)
	}
	return out, nil
}

// spawn starts one child and adds it to the system.
func (s *system) spawn(name, bin string, args ...string) error {
	p := &proc{name: name, cmd: exec.Command(bin, args...)}
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", name, err)
	}
	s.procs = append(s.procs, p)
	s.cmdlines = append(s.cmdlines, filepath.Base(bin)+" "+strings.Join(args, " "))
	return nil
}

// startSystem starts the processes of a stack and waits until the
// client-facing one answers /readyz with 200. bins holds the adpmd and
// adpmproxy binaries; tmp is where data directories go.
func startSystem(stack string, bins binaries, tmp string) (*system, error) {
	s := &system{}
	trackSystem(s, true)
	var err error
	switch stack {
	case "memory":
		var a []string
		if a, err = freeAddrs(1); err != nil {
			break
		}
		s.base = "http://" + a[0]
		err = s.spawn("adpmd", bins.adpmd, "-addr", a[0])
	case "durable":
		var a []string
		if a, err = freeAddrs(4); err != nil {
			break
		}
		leader, follower, repl, proxy := a[0], a[1], a[2], a[3]
		var dirL, dirF string
		if dirL, err = os.MkdirTemp(tmp, "leader-"); err != nil {
			break
		}
		s.dataDirs = append(s.dataDirs, dirL)
		if dirF, err = os.MkdirTemp(tmp, "follower-"); err != nil {
			break
		}
		s.dataDirs = append(s.dataDirs, dirF)
		if err = s.spawn("follower", bins.adpmd, "-addr", follower, "-data-dir", dirF, "-follow", repl); err != nil {
			break
		}
		// The leader dials the follower at start-up for the initial
		// catch-up, so the replication listener must be accepting first.
		if err = waitDial(repl, 10*time.Second); err != nil {
			break
		}
		if err = s.spawn("leader", bins.adpmd, "-addr", leader, "-data-dir", dirL,
			"-fsync", "always", "-repl", repl, "-repl-ack", "quorum"); err != nil {
			break
		}
		if err = waitReady("http://"+leader, 15*time.Second); err != nil {
			break
		}
		s.base = "http://" + proxy
		err = s.spawn("proxy", bins.adpmproxy, "-addr", proxy,
			"-pairs", "a=http://"+leader+",http://"+follower)
	default:
		err = fmt.Errorf("no processes for stack %q", stack)
	}
	if err == nil {
		err = waitReady(s.base, 15*time.Second)
	}
	if err != nil {
		logs := s.logs()
		s.stop()
		return nil, fmt.Errorf("%w\n%s", err, logs)
	}
	return s, nil
}

// keepAwakeMax is when a spinner ends by itself, should its parent have
// been killed; a run is over long before.
const keepAwakeMax = 2 * time.Minute

// keepAwake starts one spinning child per CPU in the idle scheduling
// class; stop ends them. self is this executable; without one (under go
// test) nothing is started.
//
// The open-loop workload runs far under capacity by design, so between
// requests the box idles and its virtual CPUs halt. How long a halted
// vCPU takes to wake, and how fast it runs afterwards, is the host's
// business and changes in stretches of tens of seconds: over runs of
// one commit the server's CPU per op moved between 1.15 and 1.8ms and
// the median state read between 0.26 and 0.36ms, whole runs at a time.
// With the vCPUs kept awake they read 1.0-1.2ms and 0.16-0.19ms. An
// idle-class task runs only when nothing else wants the CPU and is
// preempted the moment something does. The closed-loop workloads keep
// the box busy themselves and get no spinners.
func keepAwake(self string) (*system, error) {
	s := &system{}
	if self == "" {
		return s, nil
	}
	trackSystem(s, true)
	for i := 0; i < runtime.NumCPU(); i++ {
		if err := s.spawn("keep-awake", self, "-keep-awake", keepAwakeMax.String()); err != nil {
			s.stop()
			return nil, err
		}
	}
	return s, nil
}

// spinIdle is the child keepAwake starts: it drops to the idle
// scheduling class (nice 19 where that is refused) and spins until d
// has passed, so that it ends by itself should its parent be killed.
func spinIdle(d time.Duration) {
	runtime.LockOSThread()
	const schedIdle = 5 // SCHED_IDLE
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		_ = syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19)
	}
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

// waitDial polls until addr accepts a TCP connection.
func waitDial(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not accepting after %v: %w", addr, timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitReady polls GET base/readyz until it answers 200. The poll is
// tight (2ms) so set-up time is the system's, not the poll interval's.
func waitReady(base string, timeout time.Duration) error {
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return nil
			}
			last = fmt.Errorf("readyz answered %d", resp.StatusCode)
		} else {
			last = err
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %v: %v", base, timeout, last)
}

// logs returns what the children wrote to stderr so far. Only safe to
// read for diagnostics: a child may still be writing.
func (s *system) logs() string {
	var b strings.Builder
	for _, p := range s.procs {
		fmt.Fprintf(&b, "--- %s stderr ---\n%s", p.name, p.stderr.String())
	}
	return b.String()
}

// stop kills every child, waits for each to end and removes the data
// directories. The children hold nothing worth a graceful drain: the
// run's answers are already checked and the data is thrown away.
func (s *system) stop() {
	trackSystem(s, false)
	for _, p := range s.procs {
		if p.cmd.Process != nil {
			_ = p.cmd.Process.Kill()
		}
	}
	for _, p := range s.procs {
		if p.cmd.Process != nil {
			_ = p.cmd.Wait()
		}
	}
	s.procs = nil
	for _, d := range s.dataDirs {
		_ = os.RemoveAll(d)
	}
	s.dataDirs = nil
}

// cpuTime sums user+system CPU time of the children so far, read from
// /proc/<pid>/stat while they run (fields 14 and 15, in clock ticks of
// 10ms on Linux).
func (s *system) cpuTime() time.Duration {
	var ticks int64
	for _, p := range s.procs {
		ticks += procTicks(strconv.Itoa(p.cmd.Process.Pid))
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// procTicks reads utime+stime of /proc/<pid>/stat.
func procTicks(pid string) int64 {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from after its closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return ut + st
}

// peakRSSMB sums the children's peak resident set sizes (VmHWM), read
// before they are reaped.
func (s *system) peakRSSMB() float64 {
	var kb int64
	for _, p := range s.procs {
		kb += vmHWMkB(strconv.Itoa(p.cmd.Process.Pid))
	}
	return float64(kb) / 1024
}

// vmHWMkB reads VmHWM from /proc/<pid>/status.
func vmHWMkB(pid string) int64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

// selfCPU returns this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// binaries locates the programs under test.
type binaries struct {
	adpmd, adpmproxy string
}

// buildBinaries builds adpmd and adpmproxy from the checkout at root
// into dir and reports how long that took. The go build cache makes a
// repeat build a sub-second no-op, so this always runs: a stale binary
// would measure the wrong code.
func buildBinaries(root, dir string) (binaries, time.Duration, error) {
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return binaries{}, 0, err
	}
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/adpmd", "./cmd/adpmproxy")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, 0, fmt.Errorf("go build ./cmd/adpmd ./cmd/adpmproxy: %v\n%s", err, out)
	}
	return binaries{adpmd: filepath.Join(dir, "adpmd"), adpmproxy: filepath.Join(dir, "adpmproxy")},
		time.Since(t0), nil
}
