// Command chronosd runs the online speculation-planning service: an HTTP
// JSON API over the Chronos PoCD/cost optimization, with a sharded plan
// cache, a bounded optimization worker pool, multi-tenant budget pools,
// Prometheus metrics, and graceful shutdown on SIGINT/SIGTERM.
//
// Usage:
//
//	chronosd [-addr :8080] [-cache-capacity 4096] [-cache-shards 16]
//	         [-workers N] [-max-body 1048576] [-shutdown-grace 10s]
//	         [-tenants tenants.json]
//	         [-self http://host:port -peers url1,url2,... | -ring ring.json]
//	         [-heartbeat-interval 1s] [-suspect-after 3]
//	         [-escrow] [-data-dir /var/lib/chronosd]
//	         [-escrow-lease-ttl 15s] [-escrow-lease-fraction 0.1]
//	         [-snapshot-interval 30s]
//	         [-log-level info] [-log-sample 1] [-debug-addr 127.0.0.1:6060]
//
// Endpoints:
//
//	POST /v1/plan        optimal plan for one job (cached hot path)
//	POST /v1/plan/batch  shared-budget allocation across a job batch
//	POST /v1/admit       online admission control against a tenant budget pool
//	POST /v1/admit/batch admission for several same-tenant jobs, one debit
//	GET  /v1/tradeoff    PoCD/cost frontier for one strategy
//	POST /v1/simulate    bounded discrete-event what-if run (one JSON report)
//	POST /v1/replay      streaming trace replay: NDJSON per-job events, with
//	                     optional server-side trace generation and tenant
//	                     budget debiting
//	POST /v1/escrow/lease internal: a holder replica's lease call to the
//	                     tenant's pool owner (-escrow)
//	GET  /metrics        Prometheus text metrics
//	GET  /healthz        liveness probe
//	GET  /debug/traces   slowest recent request traces with stage breakdowns
//
// Every request carries a trace ID (honored from X-Chronosd-Trace-Id or
// minted) that is stamped on the response, propagated across escrow lease
// calls, and attached to the sampled JSON request log lines (-log-level,
// -log-sample). With -debug-addr a second listener serves /debug/pprof/ and
// /debug/traces, so profiling never shares the serving listener.
//
// Every replica plans and debits each request it receives: a plan is a pure
// function of the job, and solving it costs less than a loopback hop to
// another replica, so plans are never routed. With -self/-peers (or a -ring
// membership file) the replica joins a fleet whose consistent-hash ring
// assigns each tenant's escrow pool to one owner. The fleet is
// self-managing: every -heartbeat-interval each replica probes its peers'
// /healthz, evicts a member from its ring view after -suspect-after
// consecutive failures, and re-admits it once probes recover.
//
// With -escrow, tenant budgets are fleet-exact instead of per-replica: the
// ring owner of each tenant key holds the authoritative pool and every other
// replica debits a local lease topped up over the internal /v1/escrow/lease
// API, so concurrent admits across the whole fleet can never over-commit a
// pool. Lease calls go through a per-peer circuit breaker with a single
// half-open probe per cooldown (-forward-timeout bounds each call).
// -data-dir makes the ledger durable (periodic snapshot + append-only WAL,
// replayed on boot).
//
// SIGHUP re-reads the -tenants and -ring config files: tenant reloads carry
// live ledger levels over for pools whose budget shape is unchanged and
// flush the plan cache; ring reloads swap the membership atomically. A
// failed reload keeps the previous configuration.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"chronos/internal/obs"
	"chronos/internal/ring"
	"chronos/internal/server"
	"chronos/internal/tenant"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		cacheCapacity = flag.Int("cache-capacity", 4096, "total cached plans across shards (negative disables)")
		cacheShards   = flag.Int("cache-shards", 16, "plan cache shard count (rounded up to a power of two)")
		workers       = flag.Int("workers", 0, "max concurrent optimizations (0 = GOMAXPROCS)")
		maxBody       = flag.Int64("max-body", 1<<20, "request body limit in bytes")
		maxBatch      = flag.Int("max-batch-jobs", 1024, "jobs accepted per /v1/plan/batch call")
		maxSimJobs    = flag.Int("max-sim-jobs", 500, "jobs accepted per /v1/simulate call")
		maxSimTasks   = flag.Int("max-sim-tasks", 5000, "tasks per simulated job")
		maxSimTotal   = flag.Int("max-sim-total-tasks", 50000, "total tasks per /v1/simulate call")
		maxReplay     = flag.Int("max-replay-jobs", 100000, "jobs per /v1/replay stream")
		maxActive     = flag.Int("max-active-replays", 4, "concurrently running /v1/replay streams")
		readTimeout   = flag.Duration("read-timeout", 10*time.Second, "HTTP read timeout")
		writeTimeout  = flag.Duration("write-timeout", 60*time.Second, "HTTP write timeout")
		grace         = flag.Duration("shutdown-grace", 10*time.Second, "graceful drain budget on shutdown")
		tenantsPath   = flag.String("tenants", "", "tenant budget-pool config file (JSON); SIGHUP reloads it")
		self          = flag.String("self", "", "this replica's base URL in the fleet's consistent-hash ring")
		peers         = flag.String("peers", "", "comma-separated fleet base URLs (ring membership)")
		ringPath      = flag.String("ring", "", "ring membership file (JSON {self, peers}); SIGHUP reloads it")
		forwardTO     = flag.Duration("forward-timeout", 2*time.Second, "timeout of one escrow lease call to a tenant's pool owner")
		heartbeat     = flag.Duration("heartbeat-interval", time.Second, "peer liveness probe interval for health-driven membership (0 disables)")
		suspectAfter  = flag.Int("suspect-after", 3, "consecutive failed probes before a ring member is evicted")
		escrow        = flag.Bool("escrow", false, "fleet-exact tenant budgets via the escrow ledger (off = per-replica approximation)")
		dataDir       = flag.String("data-dir", "", "durability directory for the escrow snapshot+WAL (empty = memory only)")
		leaseTTL      = flag.Duration("escrow-lease-ttl", 15*time.Second, "escrow lease lifetime without a renewal before the owner reclaims it")
		leaseFraction = flag.Float64("escrow-lease-fraction", 0.1, "share of a tenant's budget one replica targets for its local lease")
		snapInterval  = flag.Duration("snapshot-interval", 30*time.Second, "how often the escrow WAL is folded into a fresh snapshot")
		logLevel      = flag.String("log-level", "info", "log level: debug, info, warn, or error")
		logSample     = flag.Int("log-sample", 1, "log every Nth request line (5xx always log)")
		debugAddr     = flag.String("debug-addr", "", "separate listener for /debug/pprof/ and /debug/traces (empty disables)")
		traceRing     = flag.Int("trace-ring", 0, "retained request traces for /debug/traces (0 = 256)")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chronosd:", err)
		os.Exit(1)
	}
	// All operational logs are structured JSON on stderr, machine-parseable
	// by the same pipeline that ingests the request lines.
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	var tenants *tenant.Registry
	if *tenantsPath != "" {
		tenants, err = tenant.LoadFile(*tenantsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chronosd:", err)
			os.Exit(1)
		}
		logger.Info("tenants loaded", "pools", tenants.Len(), "path", *tenantsPath)
	}

	membership := ring.Membership{Self: *self, Peers: ring.ParsePeers(*peers)}
	if *ringPath != "" {
		if membership.Enabled() {
			fmt.Fprintln(os.Stderr, "chronosd: -ring is mutually exclusive with -self/-peers")
			os.Exit(1)
		}
		membership, err = ring.LoadFile(*ringPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chronosd:", err)
			os.Exit(1)
		}
	}
	if err := membership.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "chronosd:", err)
		os.Exit(1)
	}
	if membership.Enabled() {
		logger.Info("ring join",
			"self", ring.NormalizeURL(membership.Self),
			"members", len(membership.Members()))
	}

	var store *tenant.Store
	if *dataDir != "" {
		store, err = tenant.OpenStore(*dataDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chronosd:", err)
			os.Exit(1)
		}
		st := store.State()
		logger.Info("data dir opened", "path", *dataDir,
			"pools", len(st.Pools), "leases", len(st.Leases))
	}

	srv := server.New(server.Config{
		Addr:                   *addr,
		CacheCapacity:          *cacheCapacity,
		CacheShards:            *cacheShards,
		Workers:                *workers,
		MaxBodyBytes:           *maxBody,
		MaxBatchJobs:           *maxBatch,
		MaxSimJobs:             *maxSimJobs,
		MaxSimTasks:            *maxSimTasks,
		MaxSimTotalTasks:       *maxSimTotal,
		MaxReplayJobs:          *maxReplay,
		MaxActiveReplays:       *maxActive,
		ReadTimeout:            *readTimeout,
		WriteTimeout:           *writeTimeout,
		ShutdownGrace:          *grace,
		Tenants:                tenants,
		Self:                   membership.Self,
		Peers:                  membership.Peers,
		ForwardTimeout:         *forwardTO,
		HeartbeatInterval:      *heartbeat,
		SuspectAfter:           *suspectAfter,
		Escrow:                 *escrow,
		Store:                  store,
		EscrowLeaseTTL:         *leaseTTL,
		EscrowLeaseFraction:    *leaseFraction,
		EscrowSnapshotInterval: *snapInterval,
		Logger:                 logger,
		LogSample:              *logSample,
		TraceRingSize:          *traceRing,
	})

	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One SIGHUP reloads every file-backed config: tenant budgets and ring
	// membership share the reload path, so fleet-wide rollouts need one
	// signal per replica, not one per subsystem.
	if *tenantsPath != "" || *ringPath != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for {
				select {
				case <-ctx.Done():
					return
				case <-hup:
					if *tenantsPath != "" {
						reloaded, err := tenant.LoadFile(*tenantsPath)
						if err != nil {
							logger.Error("SIGHUP tenant reload failed, keeping previous tenants",
								"path", *tenantsPath, "error", err.Error())
						} else {
							reloaded.Rebase(srv.Tenants())
							srv.SetTenants(reloaded)
							logger.Info("tenants reloaded (plan cache flushed)",
								"pools", reloaded.Len(), "path", *tenantsPath)
						}
					}
					if *ringPath != "" {
						m, err := ring.LoadFile(*ringPath)
						if err != nil {
							logger.Error("SIGHUP ring reload failed, keeping previous ring",
								"path", *ringPath, "error", err.Error())
						} else if err := srv.SetRing(m); err != nil {
							logger.Error("SIGHUP ring swap failed, keeping previous ring",
								"path", *ringPath, "error", err.Error())
						} else {
							logger.Info("ring membership reloaded",
								"path", *ringPath, "members", len(m.Members()))
						}
					}
				}
			}
		}()
	}

	// The debug surface gets its own listener: pprof handlers block for up
	// to their profiling window and must never contend with (or be exposed
	// on) the serving address.
	if *debugAddr != "" {
		dbg := &http.Server{Addr: *debugAddr, Handler: srv.DebugHandler()}
		go func() {
			<-ctx.Done()
			shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_ = dbg.Shutdown(shutCtx)
		}()
		go func() {
			logger.Info("debug listener up", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("debug listener failed", "addr", *debugAddr, "error", err.Error())
			}
		}()
	}

	logger.Info("listening", "addr", *addr,
		"logLevel", level.String(), "logSample", *logSample,
		"escrow", *escrow, "dataDir", *dataDir)
	if err := srv.ListenAndServe(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "chronosd:", err)
		os.Exit(1)
	}
	// Graceful teardown: release escrow leases to their owners, compact the
	// ledger, then close the WAL.
	srv.Close()
	if err := store.Close(); err != nil {
		logger.Error("data dir close failed", "error", err.Error())
	}
	hits, misses, entries := srv.CacheStats()
	logger.Info("stopped",
		"cacheHits", hits, "cacheMisses", misses, "cacheEntries", entries)
}
