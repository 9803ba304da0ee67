package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync/atomic"
)

// Logger is the structured request logger: a slog JSON logger plus a 1-in-N
// sampler for per-request lines, so full-fidelity logging can be turned on
// for debugging while the default keeps the ~12µs cached plan path from
// paying a JSON encode per request. Operational (non-request) logs bypass
// the sampler via Op. A nil *Logger disables logging entirely.
type Logger struct {
	sl     *slog.Logger
	sample uint64
	seq    atomic.Uint64
}

// NewLogger builds a request logger writing JSON lines to w at the given
// level, logging every sample-th request line (sample <= 1 logs all).
func NewLogger(w io.Writer, level slog.Level, sample int) *Logger {
	return FromSlog(slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level})), sample)
}

// FromSlog wraps an existing slog logger (cmd/chronosd builds one for its
// operational logs and shares it with the server) with request sampling.
func FromSlog(sl *slog.Logger, sample int) *Logger {
	if sl == nil {
		return nil
	}
	if sample < 1 {
		sample = 1
	}
	return &Logger{sl: sl, sample: uint64(sample)}
}

// Op returns the underlying unsampled slog logger for operational events
// (startup, reloads, shutdown), or nil on a nil receiver.
func (l *Logger) Op() *slog.Logger {
	if l == nil {
		return nil
	}
	return l.sl
}

// Request emits one sampled request line from a finished snapshot. Server
// errors (5xx) always log — when something broke, the trail matters more
// than the sampling budget; other lines log 1-in-sample. The stage breakdown
// is attached as a group with per-stage seconds, so a logged line carries
// the same decomposition /debug/traces shows.
func (l *Logger) Request(snap *Snapshot) {
	if l == nil || snap == nil {
		return
	}
	if snap.Status < 500 && l.seq.Add(1)%l.sample != 0 {
		return
	}
	if !l.sl.Enabled(context.Background(), slog.LevelInfo) {
		return
	}
	attrs := make([]slog.Attr, 0, 8+int(NumStages))
	attrs = append(attrs,
		slog.String("traceId", snap.ID),
		slog.String("route", snap.Route),
		slog.Int("status", snap.Status),
		slog.Float64("seconds", snap.Seconds),
	)
	if snap.Tenant != "" {
		attrs = append(attrs, slog.String("tenant", snap.Tenant))
	}
	if snap.Cached != nil {
		attrs = append(attrs, slog.Bool("cached", *snap.Cached))
	}
	var stages []any
	for s := Stage(0); s < NumStages; s++ {
		if snap.StageCounts[s] != 0 {
			stages = append(stages, slog.Float64(s.String(), snap.StageSeconds(s)))
		}
	}
	if stages != nil {
		attrs = append(attrs, slog.Group("stages", stages...))
	}
	level := slog.LevelInfo
	if snap.Status >= 500 {
		level = slog.LevelError
	}
	l.sl.LogAttrs(context.Background(), level, "request", attrs...)
}

// ParseLevel maps the -log-level flag vocabulary onto slog levels.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn, or error)", s)
}
