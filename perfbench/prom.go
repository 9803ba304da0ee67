package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// scrape is one parsed Prometheus text exposition: every sample keyed by its
// series exactly as chronosd prints it (`name{label="v",...}`), so label
// order is the exporter's own and lookups need no label parsing.
type scrape map[string]float64

// parseProm reads the Prometheus text format, skipping comments and blank
// lines. A sample line is `series value [timestamp]`; the series may contain
// spaces only inside quoted label values.
func parseProm(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The series ends at the closing brace when labels are present,
		// else at the first space.
		cut := strings.IndexByte(line, ' ')
		if brace := strings.LastIndexByte(line, '}'); brace >= 0 {
			cut = brace + 1
		}
		if cut <= 0 || cut >= len(line) {
			return nil, fmt.Errorf("prom: malformed line %q", line)
		}
		fields := strings.Fields(line[cut:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: bad value in %q: %v", line, err)
		}
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

// series renders a metric name and label pairs the way chronosd prints
// them: `name{k1="v1",k2="v2"}`, or the bare name without labels.
func series(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString("=")
		b.WriteString(strconv.Quote(labels[i+1]))
	}
	b.WriteByte('}')
	return b.String()
}

// get returns one series' value, zero when absent (a counter that never
// fired is not exported by chronosd).
func (s scrape) get(name string, labels ...string) float64 {
	return s[series(name, labels...)]
}

// sum adds every series of the metric name across all its label sets.
func (s scrape) sum(name string) float64 {
	var total float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// labelled returns the value of every series of name keyed by the value of
// one label, for metrics with exactly that label (per-tenant gauges).
func (s scrape) labelled(name, label string) map[string]float64 {
	out := map[string]float64{}
	prefix := name + "{" + label + "="
	for k, v := range s {
		if !strings.HasPrefix(k, prefix) || !strings.HasSuffix(k, "}") {
			continue
		}
		val, err := strconv.Unquote(k[len(prefix) : len(k)-1])
		if err != nil {
			continue
		}
		out[val] = v
	}
	return out
}

// delta is after minus before for every series present after; a series
// absent before counts from zero (counters appear on first increment).
func delta(before, after scrape) scrape {
	out := make(scrape, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// stageSum and stageCount read one chronosd_stage_seconds histogram's
// sum (seconds) and count (observations).
func (s scrape) stageSum(stage string) float64 {
	return s.get("chronosd_stage_seconds_sum", "stage", stage)
}

func (s scrape) stageCount(stage string) float64 {
	return s.get("chronosd_stage_seconds_count", "stage", stage)
}

// fetchMetrics scrapes GET /metrics from one chronosd.
func fetchMetrics(base string) (scrape, error) {
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	return parseProm(resp.Body)
}

// fetchAll scrapes every replica and sums the scrapes series by series, so
// fleet-wide counters read like one server's.
func fetchAll(bases []string) (scrape, []scrape, error) {
	total := scrape{}
	each := make([]scrape, len(bases))
	for i, b := range bases {
		s, err := fetchMetrics(b)
		if err != nil {
			return nil, nil, err
		}
		each[i] = s
		for k, v := range s {
			total[k] += v
		}
	}
	return total, each, nil
}
