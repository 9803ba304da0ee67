package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ops is a workload's request stream as the load loops see it: the
// pre-encoded request of op i, and the correctness check of its response.
// check runs on connection conn's goroutine and must only touch that
// connection's state.
type ops interface {
	request(i int64) []byte
	check(conn int, i int64, status int, body []byte) error
}

// opTimeout bounds one request; a response slower than this is a failure.
const opTimeout = 5 * time.Second

// rootSpan is the traced run's per-op root: one loopback round trip.
type rootSpan struct {
	Op         int64
	Start, End time.Time
}

// tally counts one phase's outcomes across its connections.
type tally struct {
	ok, failed atomic.Int64
	errMu      sync.Mutex
	firstErr   error
}

func (t *tally) record(err error) {
	if err == nil {
		t.ok.Add(1)
		return
	}
	t.failed.Add(1)
	t.errMu.Lock()
	if t.firstErr == nil {
		t.firstErr = err
	}
	t.errMu.Unlock()
}

// closedResult is one closed-loop phase.
type closedResult struct {
	ok, failed int64
	elapsed    time.Duration
	rtt        []float64 // per-op round trip, µs
	spans      []rootSpan
	firstErr   error
	// slices are the phase cut into sampleEvery intervals: successful ops
	// and server CPU seconds in each.
	slices []slice
}

type slice struct {
	ok    int64
	cpu   float64
	gen   float64 // the generator's own CPU seconds
	dur   time.Duration
	steal float64 // host steal share over the interval
}

// sampleEvery is the closed loop's sampling interval.
const sampleEvery = 500 * time.Millisecond

// counts returns the phase's outcomes as bench.count takes them.
func (r closedResult) counts() (ok, failed int64, firstErr error) {
	return r.ok, r.failed, r.firstErr
}

func (r closedResult) throughput() float64 {
	return float64(r.ok) / r.elapsed.Seconds()
}

// The closed loop's figures are ratios of totals over its whole sampling
// intervals: ops over seconds, server CPU seconds over ops or over the
// generator's CPU seconds. On a host with shared vCPUs the speed chronosd
// gets drifts by a third or more in spells of several seconds to minutes;
// over ten runs the whole-phase mean spreads less than a median or
// best-quarter interval, which follow the spells a run happened to catch.
func (r closedResult) sampled() (ok int64, cpu, gen, secs float64) {
	for _, s := range r.slices {
		ok += s.ok
		cpu += s.cpu
		gen += s.gen
		secs += s.dur.Seconds()
	}
	return ok, cpu, gen, secs
}

func (r closedResult) steal() []float64 {
	var xs []float64
	for _, s := range r.slices {
		xs = append(xs, s.steal)
	}
	return xs
}

// sampledThroughput is the successful ops per second over the sampled
// intervals.
func (r closedResult) sampledThroughput() float64 {
	ok, _, _, secs := r.sampled()
	return float64(ok) / secs
}

// cpuPerOp is the server CPU seconds per successful op over the sampled
// intervals.
func (r closedResult) cpuPerOp() float64 {
	ok, cpu, _, _ := r.sampled()
	return cpu / float64(max(ok, 1))
}

// cpuRatio is the server's CPU seconds over the generator's over the
// sampled intervals (see endToEnd).
func (r closedResult) cpuRatio() float64 {
	_, cpu, gen, _ := r.sampled()
	return cpu / gen
}

// closedLoop runs one connection per conns entry, each sending its next
// request only after the previous answer arrived — a scheduler's worker
// threads each waiting for their plan. Ops are taken in order from next, so
// the set of inputs sent is a prefix of the stream whatever the timing; the
// phase ends after dur or when the stream's limit is reached. With cpu set,
// the phase is also sampled every sampleEvery (ops done, server CPU).
func closedLoop(conns []*rawConn, w ops, next *atomic.Int64, limit int64, dur time.Duration, traced bool, cpu func() float64) closedResult {
	var t tally
	rtts := make([][]float64, len(conns))
	spans := make([][]rootSpan, len(conns))
	start := time.Now()
	end := start.Add(dur)
	var slices []slice
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		if cpu == nil {
			return
		}
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		lastT, lastOK, lastCPU, lastGen := start, int64(0), cpu(), selfCPU()
		lastSteal, lastTotal := hostSteal()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				ok, c, g := t.ok.Load(), cpu(), selfCPU()
				st, tot := hostSteal()
				slices = append(slices, slice{ok: ok - lastOK, cpu: c - lastCPU, gen: g - lastGen, dur: now.Sub(lastT),
					steal: (st - lastSteal) / max(tot-lastTotal, 1)})
				lastT, lastOK, lastCPU, lastGen = now, ok, c, g
				lastSteal, lastTotal = st, tot
			}
		}
	}()
	var wg sync.WaitGroup
	for k, c := range conns {
		wg.Add(1)
		go func(k int, c *rawConn) {
			defer wg.Done()
			for {
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				i := next.Add(1) - 1
				if i >= limit {
					return
				}
				status, body, err := c.do(w.request(i), t0.Add(opTimeout))
				t1 := time.Now()
				if err == nil {
					err = w.check(k, i, status, body)
				}
				t.record(err)
				rtts[k] = append(rtts[k], float64(t1.Sub(t0).Nanoseconds())/1e3)
				if traced {
					spans[k] = append(spans[k], rootSpan{Op: i, Start: t0, End: t1})
				}
			}
		}(k, c)
	}
	wg.Wait()
	close(stop)
	<-sampled
	r := closedResult{ok: t.ok.Load(), failed: t.failed.Load(), elapsed: time.Since(start), firstErr: t.firstErr, slices: slices}
	for k := range conns {
		r.rtt = append(r.rtt, rtts[k]...)
		r.spans = append(r.spans, spans[k]...)
	}
	sort.Slice(r.spans, func(a, b int) bool { return r.spans[a].Op < r.spans[b].Op })
	return r
}

// openSample is one open-loop request as the generator saw it.
type openSample struct {
	window int
	// latency is the round trip from the actual send plus the time the
	// request was due but its connection was still busy with the previous
	// answer. A server stall is thereby charged to every request scheduled
	// behind it (no coordinated omission), while the generator's own
	// wake-up lateness, reported as lag, is not.
	latency float64 // µs
	// lag is how late the generator itself sent: actual send minus the
	// later of the intended time and the moment the connection was free.
	lag float64 // µs
	// behind is actual send minus intended send: positive when the request
	// queued behind a slow predecessor on its connection (backlog).
	behind float64 // µs
}

// openResult is one open-loop phase, scored per window.
type openResult struct {
	ok, failed int64
	elapsed    time.Duration
	firstErr   error
	windows    []windowStat
	endBehind  float64 // µs the last request on any connection was late
}

type windowStat struct {
	lat       dist
	lagP99    float64 // µs
	behindMax float64 // µs
	valid     bool
}

// maxLagP99 is the generator-validity bound on a window's send lag
// p99 (time the pacer was late with a free connection). On a host with
// shared vCPUs the pacer wakes a few hundred microseconds late at p99 when
// the host is quiet and a few milliseconds late under hypervisor steal;
// past this bound the generator, not the host, is broken.
const maxLagP99 = 20 * time.Millisecond

// maxBehind bounds the backlog at the end of the phase: a last request
// still this far behind schedule means the rate exceeded what the server
// sustains. A stall the server recovers from is not a backlog; its wait is
// charged to the requests queued behind it.
const maxBehind = time.Second

// openLoop sends at a fixed total rate, op j intended at start + j/rate on
// connection j mod len(conns), op indices base+j. Pacing sleeps in
// nanosleep (no spinning, so the generator does not steal a core from
// chronosd) and wakes early by a running estimate of its own wake-up
// overshoot, so the send lands on the schedule instead of ~60 µs after it.
func openLoop(conns []*rawConn, w ops, base int64, rate float64, dur, window time.Duration) openResult {
	var t tally
	samples := make([][]openSample, len(conns))
	start := time.Now().Add(time.Millisecond)
	n := int64(rate * dur.Seconds())
	var wg sync.WaitGroup
	for k, c := range conns {
		wg.Add(1)
		go func(k int, c *rawConn) {
			defer wg.Done()
			est := 60 * time.Microsecond // wake-up overshoot estimate
			var free time.Time
			for j := int64(k); j < n; j += int64(len(conns)) {
				intended := start.Add(time.Duration(float64(j) / rate * 1e9))
				wake := intended.Add(-est)
				if d := time.Until(wake); d > 0 {
					napFor(d)
					over := time.Since(wake)
					est += (over - est) / 8
					est = min(max(est, 10*time.Microsecond), 500*time.Microsecond)
				}
				send := time.Now()
				status, body, err := c.do(w.request(base+j), send.Add(opTimeout))
				done := time.Now()
				if err == nil {
					err = w.check(k, base+j, status, body)
				}
				t.record(err)
				// Queueing the server caused: the connection was still busy
				// with the previous answer when this request was due.
				queued := max(free.Sub(intended), 0)
				ready := intended.Add(queued)
				free = done
				samples[k] = append(samples[k], openSample{
					window:  int(intended.Sub(start) / window),
					latency: float64((done.Sub(send) + queued).Nanoseconds()) / 1e3,
					lag:     float64(max(send.Sub(ready), 0).Nanoseconds()) / 1e3,
					behind:  float64(send.Sub(intended).Nanoseconds()) / 1e3,
				})
			}
		}(k, c)
	}
	wg.Wait()
	r := openResult{ok: t.ok.Load(), failed: t.failed.Load(), elapsed: time.Since(start), firstErr: t.firstErr}
	nw := int(dur / window)
	lat := make([][]float64, nw)
	lag := make([][]float64, nw)
	behind := make([]float64, nw)
	for _, ss := range samples {
		if len(ss) > 0 {
			r.endBehind = max(r.endBehind, ss[len(ss)-1].behind)
		}
		for _, s := range ss {
			if s.window >= nw {
				continue
			}
			lat[s.window] = append(lat[s.window], s.latency)
			lag[s.window] = append(lag[s.window], s.lag)
			behind[s.window] = max(behind[s.window], s.behind)
		}
	}
	for i := 0; i < nw; i++ {
		ws := windowStat{lat: summarize(lat[i]), lagP99: summarize(lag[i]).P99, behindMax: behind[i]}
		ws.valid = ws.lat.N > 0 && ws.lagP99 <= float64(maxLagP99.Microseconds())
		r.windows = append(r.windows, ws)
	}
	return r
}

// scored reduces the open loop to the reported latency over the valid
// windows: the lower quartile of the window medians (smoothed, see
// midMean), since a neighbour's burst only ever slows a window down, and
// the median window p99. The run is
// invalid — not scored at all — when fewer than half the windows are valid
// (the generator itself could not keep its schedule) or when the phase ends
// with a backlog.
func (r openResult) scored() (p50, p99 float64, err error) {
	if r.endBehind > float64(maxBehind.Microseconds()) {
		return 0, 0, fmt.Errorf("open loop invalid: %.0fus behind schedule at the end (bound %v): the rate exceeds capacity",
			r.endBehind, maxBehind)
	}
	ws := r.scoredWindows()
	if len(ws) == 0 || 2*len(ws) < len(r.windows) {
		return 0, 0, fmt.Errorf("open loop invalid: %d of %d windows have a send lag p99 within %v",
			len(ws), len(r.windows), maxLagP99)
	}
	var a, b []float64
	for _, w := range ws {
		a = append(a, w.lat.Mid)
		b = append(b, w.lat.P99)
	}
	return percentile(sortedCopy(a), 0.25), median(b), nil
}

// scoredWindows returns the valid windows.
func (r openResult) scoredWindows() []windowStat {
	var ws []windowStat
	for _, w := range r.windows {
		if w.valid {
			ws = append(ws, w)
		}
	}
	return ws
}

// lagP99 and behindMax summarise generator validity over the whole phase.
func (r openResult) lagP99() float64 {
	var xs []float64
	for _, w := range r.windows {
		xs = append(xs, w.lagP99)
	}
	return median(xs)
}

func (r openResult) behindMax() float64 {
	var m float64
	for _, w := range r.windows {
		m = max(m, w.behindMax)
	}
	return m
}
