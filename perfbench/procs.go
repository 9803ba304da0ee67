package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one chronosd child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string // host:port
	base string // http://host:port
	done chan struct{}
}

// children tracks every chronosd this process started, so any exit path
// (including a failed check or a signal) stops and reaps them all.
var children struct {
	sync.Mutex
	all []*daemon
}

// replicaPort+k is replica k's loopback port when it is free.
// The ring places keys and tenants by hashing each member's URL, so fixed
// URLs give every run of a fleet workload the same ownership layout; a
// kernel-chosen port, the fallback, reshuffles it.
const replicaPort = 24810

func replicaAddr(k int) (string, error) {
	addr := fmt.Sprintf("127.0.0.1:%d", replicaPort+k)
	if ln, err := net.Listen("tcp", addr); err == nil {
		ln.Close()
		return addr, nil
	}
	return freePort()
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon execs chronosd with args. Its stdout and stderr (the JSON
// request log at the shipped info level) go to /dev/null: the server still
// formats and writes every line, as it would to a real log sink.
func startDaemon(bin, addr string, args []string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, addr: addr, base: "http://" + addr, done: make(chan struct{})}
	go func() { cmd.Wait(); close(d.done) }()
	children.Lock()
	children.all = append(children.all, d)
	children.Unlock()
	return d, nil
}

// stop asks chronosd to drain (SIGTERM), escalates to SIGKILL after grace,
// and waits until the process has been reaped.
func (d *daemon) stop(grace time.Duration) {
	select {
	case <-d.done:
		return
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(grace):
		d.cmd.Process.Kill()
		<-d.done
	}
}

func stopAll() {
	children.Lock()
	all := children.all
	children.all = nil
	children.Unlock()
	var wg sync.WaitGroup
	for _, d := range all {
		wg.Add(1)
		go func(d *daemon) { defer wg.Done(); d.stop(5 * time.Second) }(d)
	}
	wg.Wait()
}

// napFor blocks the calling thread in nanosleep. time.Sleep rounds sub-
// millisecond sleeps up to about a millisecond on Linux; nanosleep wakes
// within tens of microseconds, which the open-loop pacer depends on.
func napFor(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// waitHealthy polls GET /healthz until every daemon answers 200, and, when
// ringMembers > 0, until each reports that many ring nodes on /metrics.
func waitHealthy(ds []*daemon, ringMembers int, timeout time.Duration) error {
	client := http.Client{Timeout: time.Second}
	end := time.Now().Add(timeout)
	for _, d := range ds {
		for {
			select {
			case <-d.done:
				return fmt.Errorf("chronosd %s exited during start-up", d.addr)
			default:
			}
			if healthy(&client, d, ringMembers) {
				break
			}
			if time.Now().After(end) {
				return fmt.Errorf("chronosd %s not healthy after %v", d.addr, timeout)
			}
			napFor(250 * time.Microsecond)
		}
	}
	return nil
}

func healthy(client *http.Client, d *daemon, ringMembers int) bool {
	resp, err := client.Get(d.base + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	if ringMembers == 0 {
		return true
	}
	m, err := fetchMetrics(d.base)
	return err == nil && int(m.get("chronosd_ring_nodes")) == ringMembers
}

// procCPU returns the process's utime+stime from /proc/<pid>/stat in
// seconds (USER_HZ = 100 ticks per second on Linux).
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after the
	// closing parenthesis are space-separated, utime and stime being the
	// 14th and 15th fields overall.
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return (ut + st) / 100, nil
}

// procHWM returns the process's peak resident set (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// fleetCPU sums procCPU over the daemons.
func fleetCPU(ds []*daemon) (float64, error) {
	var total float64
	for _, d := range ds {
		c, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// hostSteal returns the host's cumulative steal and total CPU ticks from
// the first line of /proc/stat.
func hostSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// selfCPU is this process's user+system CPU time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// fleet is the set of chronosd replicas one run drives.
type fleet struct {
	b        *bench
	replicas int
	// args returns each replica's flags beyond -addr; dir is a fresh
	// directory for this boot's state (tenant file, data dirs).
	args    func(addrs []string, dir string) ([][]string, error)
	daemons []*daemon
	boots   []float64 // seconds each boot took
}

// boot starts the replicas on fresh ports and state and returns the seconds
// from the first exec until every replica answers /healthz (and, in a
// fleet, sees every ring member).
func (f *fleet) boot(dir string) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	addrs := make([]string, f.replicas)
	for k := range addrs {
		a, err := replicaAddr(k)
		if err != nil {
			return 0, err
		}
		addrs[k] = a
	}
	args := make([][]string, f.replicas)
	if f.args != nil {
		var err error
		if args, err = f.args(addrs, dir); err != nil {
			return 0, err
		}
	}
	f.b.flags = args
	start := time.Now()
	f.daemons = nil
	for k, a := range addrs {
		d, err := startDaemon(f.b.bin, a, args[k])
		if err != nil {
			return 0, err
		}
		f.daemons = append(f.daemons, d)
	}
	ring := 0
	if f.replicas > 1 {
		ring = f.replicas
	}
	if err := waitHealthy(f.daemons, ring, 30*time.Second); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// setupBoots is how many times a run boots its replica set; setup_s is the
// median. Boot time follows the host's speed, which drifts over tens of
// seconds, so the boots straddle the measured phase: the first half run
// before it, the last of them serving the run, and the second half after
// it. Cache warm-up comes after the serving boot and is not set-up.
const setupBoots = 10

// bootAt boots the replica set as boot i and records its time; unless keep
// is set, it stops the replicas and removes their state again.
func (f *fleet) bootAt(i int, keep bool) error {
	dir := filepath.Join(f.b.work, fmt.Sprintf("boot-%d", i))
	s, err := f.boot(dir)
	if err != nil {
		return err
	}
	f.boots = append(f.boots, s)
	if !keep {
		for _, d := range f.daemons {
			d.stop(5 * time.Second)
		}
		os.RemoveAll(dir)
	}
	return nil
}

// setup makes the first half of the boots and leaves the last one running.
func (f *fleet) setup() error {
	for i := 0; i < setupBoots/2; i++ {
		if err := f.bootAt(i, i == setupBoots/2-1); err != nil {
			return err
		}
	}
	return nil
}

// setupSeconds, called after the measured phase, stops the serving
// replicas, makes the second half of the boots and returns the median boot
// time of the run.
func (f *fleet) setupSeconds() (float64, error) {
	stopAll()
	for i := setupBoots / 2; i < setupBoots; i++ {
		if err := f.bootAt(i, false); err != nil {
			return 0, err
		}
	}
	f.b.info("setup: boot seconds %.4f", f.boots)
	return median(f.boots), nil
}

func (f *fleet) bases() []string {
	var out []string
	for _, d := range f.daemons {
		out = append(out, d.base)
	}
	return out
}

// cpu is the replicas' summed CPU seconds so far.
func (f *fleet) cpu() float64 {
	c, err := fleetCPU(f.daemons)
	if err != nil {
		f.b.abort(err)
	}
	return c
}

// rss is the replicas' summed peak resident set in MiB.
func (f *fleet) rss() float64 {
	var total float64
	for _, d := range f.daemons {
		m, err := procHWM(d.cmd.Process.Pid)
		if err != nil {
			f.b.abort(err)
		}
		total += m
	}
	return total
}
