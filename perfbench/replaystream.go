package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"time"

	"chronos"
)

// replayJobs sizes one replay-stream trace. The synthetic generator's
// default density (270 jobs per 3 h) can pile more than chronosd's 50k
// in-flight task limit onto the cluster; the horizon starts at twice that
// spread and widens until an in-process replay stays under the limit.
//
// A run streams replayTraces traces in turn. chronosd's peak memory follows
// the busiest stretch of the trace it replays, which differs by a third
// from one seed's trace to the next; a run's peak is the largest of its
// traces', which differs far less, and its CPU per job averages over their
// mixes of job sizes.
const (
	replayTraces     = 4
	replayJobs       = 1500
	replayMaxOpen    = 50000
	replayWindowSecs = 3600
)

// replayRun is one replay-stream run: its generated traces uploaded to
// POST /v1/replay in turn, one stream at a time.
type replayRun struct {
	*bench
	*fleet
	traces []*replayTrace
	next   int // the trace the next stream uploads
	client *http.Client
	buf    bytes.Buffer // the stream being checked
}

// replayTrace is one generated trace, its request body and its in-process
// replay.
type replayTrace struct {
	jobs []chronos.SimJob
	cfg  chronos.SimConfig
	body []byte
	// want is the in-process replay_summary, re-encoded; every stream's
	// summary must match it byte for byte (trace ID aside).
	want []byte
	// engine is the in-process chronos.Replay of the trace: its wall time,
	// allocations and emitted events.
	engine struct {
		wall           time.Duration
		mallocs, bytes uint64
		events         int
	}
}

type replayBody struct {
	Config        chronos.SimConfig `json:"config"`
	Jobs          []chronos.SimJob  `json:"jobs"`
	WindowSeconds float64           `json:"windowSeconds"`
}

func newReplay(b *bench) (*replayRun, error) {
	r := &replayRun{bench: b, client: &http.Client{Timeout: 60 * time.Second}}
	r.fleet = &fleet{b: b, replicas: 1}
	rng := rngFor(b.workload, b.seed, "trace")
	for len(r.traces) < replayTraces {
		t := &replayTrace{}
		traceSeed := rng.Uint64() | 1
		t.cfg = chronos.SimConfig{Strategy: chronos.SpeculativeResume, Seed: traceSeed}
		horizon := 2 * float64(replayJobs) / 270 * 3 * 3600
		for attempt := 0; ; attempt++ {
			jobs, err := chronos.SyntheticTrace(chronos.TraceConfig{Jobs: replayJobs, HorizonSeconds: horizon, Seed: traceSeed})
			if err != nil {
				return nil, err
			}
			t.jobs = jobs
			if err = t.reference(); err == nil {
				break
			}
			if attempt == 5 {
				return nil, fmt.Errorf("replay trace: %v", err)
			}
			horizon *= 1.5
		}
		var err error
		if t.body, err = json.Marshal(replayBody{Config: t.cfg, Jobs: t.jobs, WindowSeconds: replayWindowSecs}); err != nil {
			return nil, err
		}
		b.digest.bytes(t.body)
		r.traces = append(r.traces, t)
	}
	return r, nil
}

// reference replays the trace in-process, recording the expected summary
// and the engine's cost (the replay layer measured without HTTP or NDJSON).
func (t *replayTrace) reference() error {
	var summary []byte
	events := 0
	obs := chronos.ReplayObserverFunc(func(ev *chronos.ReplayEvent) error {
		events++
		if ev.Kind == chronos.EventReplaySummary {
			var err error
			summary, err = json.Marshal(ev)
			return err
		}
		return nil
	})
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	_, err := chronos.Replay(context.Background(), t.cfg, t.jobs, chronos.ReplayOptions{
		WindowSeconds: replayWindowSecs, MaxOpenTasks: replayMaxOpen, Observer: obs,
	})
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	t.want = summary
	t.engine.wall = wall
	t.engine.mallocs = m1.Mallocs - m0.Mallocs
	t.engine.bytes = m1.TotalAlloc - m0.TotalAlloc
	t.engine.events = events
	return nil
}

// stream uploads the next trace and drains the NDJSON stream (its wall
// time is the stream's), then checks it: seq runs gaplessly from 0 and the
// replay_summary equals the in-process one. Checking after the stream
// keeps the generator's CPU per stream fixed work, whatever the timing of
// chronosd's flushes (see endToEnd).
func (r *replayRun) stream() (*replayTrace, time.Duration, error) {
	t := r.traces[r.next]
	r.next = (r.next + 1) % len(r.traces)
	wall, err := r.streamTrace(t)
	return t, wall, err
}

func (r *replayRun) streamTrace(t *replayTrace) (time.Duration, error) {
	start := time.Now()
	resp, err := r.client.Post(r.daemons[0].base+"/v1/replay", "application/json", bytes.NewReader(t.body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("replay: HTTP %d: %s", resp.StatusCode, msg)
	}
	r.buf.Reset()
	if _, err := r.buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	wall := time.Since(start)
	var (
		seq     uint64
		summary []byte
		head    struct {
			Event string `json:"event"`
			Seq   uint64 `json:"seq"`
		}
	)
	for rest := r.buf.Bytes(); len(rest) > 0; {
		line := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i+1], rest[i+1:]
		} else {
			rest = nil
		}
		if err := json.Unmarshal(line, &head); err != nil {
			return 0, fmt.Errorf("replay: bad event line %.200q: %v", line, err)
		}
		if head.Seq != seq {
			return 0, fmt.Errorf("replay: seq gap: got %d, want %d", head.Seq, seq)
		}
		seq++
		if head.Event == string(chronos.EventReplaySummary) {
			summary = line
		}
	}
	if summary == nil {
		return 0, fmt.Errorf("replay: stream ended after %d events without replay_summary", seq)
	}
	var ev chronos.ReplayEvent
	if err := json.Unmarshal(summary, &ev); err != nil {
		return 0, err
	}
	ev.TraceID = ""
	got, _ := json.Marshal(&ev)
	if !bytes.Equal(got, t.want) {
		return 0, fmt.Errorf("replay: summary differs from in-process chronos.Replay:\n got  %s\n want %s", got, t.want)
	}
	if int(seq) != t.engine.events {
		return 0, fmt.Errorf("replay: %d events streamed, in-process replay emitted %d", seq, t.engine.events)
	}
	return wall, nil
}

// streams runs replay streams back to back for at least dur (and at least
// one), returning each successful stream's wall time and the host steal
// share over it.
func (r *replayRun) streams(dur time.Duration) (walls []time.Duration, steal []float64) {
	end := time.Now().Add(dur)
	for len(walls) == 0 || time.Now().Before(end) {
		st0, tot0 := hostSteal()
		_, wall, err := r.stream()
		st1, tot1 := hostSteal()
		r.attempted += replayJobs
		if err != nil {
			r.failed += replayJobs
			r.failures = append(r.failures, err.Error())
			if len(r.failures) > 3 {
				break
			}
			continue
		}
		walls = append(walls, wall)
		steal = append(steal, (st1-st0)/max(tot1-tot0, 1))
	}
	return walls, steal
}

func (r *replayRun) run() {
	if err := r.setup(); err != nil {
		r.abort(err)
	}
	// One untimed stream warms the server's code paths and heap. Every
	// stream counts toward the peak resident set.
	r.streams(0)
	if r.traced {
		r.runTraced()
		return
	}
	cpu0, gen0 := r.cpu(), selfCPU()
	walls, steal := r.streams(r.seconds)
	cpu1, gen1 := r.cpu(), selfCPU()
	if len(walls) == 0 {
		r.abort(fmt.Errorf("no replay stream succeeded"))
	}
	var ms []float64
	for _, w := range walls {
		ms = append(ms, float64(w.Nanoseconds())/1e6)
	}
	jobs := float64(len(walls) * replayJobs)
	r.info("replay: %d streams over %d traces of %d jobs, stream wall ms %.1f, host steal %% %.0f",
		len(walls), len(r.traces), replayJobs, ms, scaled(steal, 100))
	// One stream at a time: throughput is the jobs streamed over the
	// streams' summed wall time (see closedResult.sampled).
	r.info("replay: %.1f jobs/s, server cpu %.1f us/job, loadgen cpu %.2f us/job (ungated)",
		jobs/(sumOf(ms)/1e3), (cpu1-cpu0)*1e6/jobs, (gen1-gen0)*1e6/jobs)
	r.metric("server_cpu_per_loadgen_cpu", (cpu1-cpu0)/(gen1-gen0), "ratio")
	r.metric("server_rss_mb", r.rss(), "MiB")
	setup, err := r.setupSeconds()
	if err != nil {
		r.abort(err)
	}
	r.metric("setup_s", setup, "s")
}

func (r *replayRun) close() {
	stopAll()
	os.RemoveAll(r.work)
}
