// Command perfbench is chronos's end-to-end benchmark. It boots real
// chronosd processes on loopback, drives one named workload from this single
// process (at most nproc connections, GOMAXPROCS = nproc), checks every
// response against an in-process oracle, and prints one JSON result line:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// With -trace 0 the metrics are the end-to-end ones (setup_s,
// server_cpu_per_loadgen_cpu, server_rss_mb); with -trace 1 they are the
// per-layer ones, from timing calls into each layer's public functions on
// the run's own inputs, and from chronosd's /metrics counters scraped
// between phases, plus the ungated wall-clock figures (closedloop.*,
// openloop.*). BENCHMARK.json at the repository root names the
// workloads, metrics and bounds; run.sh builds chronosd and this command
// from source and runs it:
//
//	bash perfbench/run.sh --workload plan-hot --seed 1 --seconds 20 --trace 0
//
// A failed correctness check prints the result with "correct": false and
// exits 1; a run that cannot be scored (set-up failure, no whole measured
// interval) prints no result and exits 2. A traced run whose open loop the
// generator could not keep on schedule leaves openloop.* at 0 and says so.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// bench is one invocation's shared state and result.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	bin      string // chronosd binary
	work     string // per-run scratch directory (data dirs, tenant files)
	traceOut string // where the traced run writes its spans
	digest   *digest
	flags    [][]string // chronosd flags per replica, for the host stamp

	metrics   map[string]metricValue
	attempted int64
	failed    int64
	failures  []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (b *bench) metric(name string, v float64, unit string) {
	b.metrics[name] = metricValue{Value: v, Unit: unit}
}

func (b *bench) info(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// fail records a failed correctness check: the run completes, reports
// correct=false, and exits nonzero.
func (b *bench) fail(err error) {
	b.failed++
	b.attempted++
	b.failures = append(b.failures, err.Error())
}

// abort ends a run that cannot be scored, printing no result.
func (b *bench) abort(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	stopAll()
	os.RemoveAll(b.work)
	os.Exit(2)
}

// count adds one load phase's outcomes to the run's totals.
func (b *bench) count(ok, failed int64, firstErr error) {
	b.attempted += ok + failed
	b.failed += failed
	if firstErr != nil {
		b.failures = append(b.failures, firstErr.Error())
	}
}

// buildDir holds everything the benchmark builds and writes, relative to
// the checkout root it runs from (run.sh builds chronosd into bin/).
const buildDir = ".bench_build"

var workloads = []string{"plan-hot", "plan-cold", "fleet-admit", "replay-stream"}

// endToEnd lists the metrics every untraced run prints, with their units.
//
// server_cpu_per_loadgen_cpu is chronosd's CPU time per op (utime+stime of
// every chronosd process) over this process's own CPU time per op, both
// taken over the same measured intervals. The generator's work per op is
// fixed — write a pre-encoded request, read the answer, compare it; on
// replay-stream, upload the trace, drain the stream, check every event — so
// it is a reference for how fast the host runs at that moment: on a host
// with shared vCPUs, neighbours move both CPU times per op by 10-30% from
// run to run, and their ratio by 1-2% (6% on replay-stream, whose traces
// differ from seed to seed). Wall-clock throughput and raw CPU time
// per op follow the neighbours; the traced run reports them ungated
// (closedloop.*), and every untraced run prints them as # lines.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"server_cpu_per_loadgen_cpu", "ratio"},
	{"server_rss_mb", "MiB"},
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed     = flag.Uint64("seed", 1, "input generator seed")
		seconds  = flag.Int("seconds", 20, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	)
	flag.Parse()
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(workloads, ", "))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		bin:      filepath.Join(buildDir, "bin", "chronosd"),
		work:     filepath.Join(buildDir, "run", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())),
		traceOut: filepath.Join(buildDir, "traces"),
		digest:   newDigest(*workload, *seed),
		metrics:  map[string]metricValue{},
	}
	if _, err := os.Stat(b.bin); err != nil {
		b.abort(fmt.Errorf("chronosd binary: %v", err))
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		b.abort(fmt.Errorf("interrupted"))
	}()

	genStart := time.Now()
	switch b.workload {
	case "replay-stream":
		r, err := newReplay(b)
		if err != nil {
			b.abort(err)
		}
		b.stamp(time.Since(genStart))
		r.run()
		r.close()
	default:
		r, err := newServing(b)
		if err != nil {
			b.abort(err)
		}
		b.stamp(time.Since(genStart))
		r.run()
		r.close()
	}
	b.finish()
}

// stamp prints the input digest and the host line; finish adds each
// chronosd's flags.
func (b *bench) stamp(gen time.Duration) {
	b.info("inputs workload=%s seed=%d digest=%s generated_in=%.2fs", b.workload, b.seed, b.digest, gen.Seconds())
	model := "unknown"
	if cpu, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(cpu), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					model = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	b.info("host nproc=%d cpu=%q go=%s", runtime.NumCPU(), model, runtime.Version())
}

// finish prints the result line and exits.
func (b *bench) finish() {
	for i, f := range b.flags {
		b.info("chronosd[%d] flags: -addr 127.0.0.1:PORT %s", i, strings.Join(f, " "))
	}
	errRatio := 0.0
	if b.attempted > 0 {
		errRatio = float64(b.failed) / float64(b.attempted)
	}
	b.info("error_ratio %g (%d failed of %d attempted)", errRatio, b.failed, b.attempted)
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	correct := b.failed == 0 && len(b.failures) == 0
	want := endToEnd
	if b.traced {
		want = perLayer
	}
	for _, m := range want {
		if !correct {
			break // a failed run reports what it measured
		}
		if got, ok := b.metrics[m.name]; !ok || got.Unit != m.unit {
			b.abort(fmt.Errorf("metric %s (%s) not recorded", m.name, m.unit))
		}
	}
	if correct && len(b.metrics) != len(want) {
		b.abort(fmt.Errorf("recorded %d metrics, want %d", len(b.metrics), len(want)))
	}
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.info("%-40s %14.6g %s", n, b.metrics[n].Value, b.metrics[n].Unit)
	}
	out, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, max(b.attempted, 1), b.failed, b.metrics})
	fmt.Println(string(out))
	if !correct {
		os.Exit(1)
	}
}
