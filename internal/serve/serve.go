// Package serve implements lognic-serve, the model-evaluation daemon: an
// HTTP/JSON front end over the analytical estimator (POST /v1/estimate),
// the knob optimizer (POST /v1/optimize) and the discrete-event simulator
// (POST /v1/simulate). Requests carry the same JSON spec documents the
// CLIs load from disk.
//
// The daemon is built for repeated evaluation of overlapping
// configurations — a sweep driver or CI gate hammering variations of one
// model — so it puts three mechanisms in front of the evaluators:
//
//   - A canonical-hash result cache. Each decoded request re-marshals to a
//     canonical byte form (units normalized, field order fixed) and its
//     SHA-256 keys an LRU of serialized response bodies; a hit replays the
//     stored bytes verbatim, guaranteeing byte-identical responses for
//     equivalent requests. Simulation results are cacheable because equal
//     seeds give equal runs.
//   - A bounded worker pool with queue-depth backpressure. At most Workers
//     evaluations run concurrently; up to QueueDepth more wait. Beyond
//     that the daemon sheds load with HTTP 429 + Retry-After instead of
//     collapsing under unbounded concurrency.
//   - Per-request timeouts and graceful drain: every evaluation runs under
//     a context with RequestTimeout, and SIGTERM/SIGINT stops accepting
//     new connections while in-flight requests finish (up to
//     DrainTimeout).
//
// For work that outlives a request timeout — long simulations above all —
// the daemon also exposes a crash-safe async job API (jobs.go,
// internal/jobs): POST /v1/jobs submits a spec for background evaluation,
// GET /v1/jobs/{id} polls it, DELETE cancels it. Accepted jobs survive
// kill -9 via an fsynced journal, interrupted simulations resume from
// periodic checkpoints with byte-identical results, failures retry with
// capped backoff, and identical submissions coalesce into one evaluation.
//
// Observability rides on internal/obs: request counts and latency
// histograms per endpoint, cache hit/miss counters and hit-ratio gauges,
// queue-depth gauges and per-request spans, exposed at /metrics (with
// ?format=json) alongside /healthz, /readyz (503 during journal replay
// and shutdown drain) and optional /debug/pprof.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lognic/internal/eval"
	"lognic/internal/jobs"
	"lognic/internal/obs"
	"lognic/internal/obs/olog"
	"lognic/internal/obs/slo"
	"lognic/internal/optimizer"
	"lognic/internal/sim"
)

// Config tunes the daemon.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:8080"; ":0" picks a
	// free port).
	Addr string
	// Workers caps concurrent evaluations (default GOMAXPROCS).
	Workers int
	// QueueDepth caps requests waiting for a worker slot (default
	// 16×Workers). Requests beyond Workers+QueueDepth in flight are
	// rejected with 429.
	QueueDepth int
	// CacheEntries bounds the result cache's entry count (default 1024;
	// negative disables caching).
	CacheEntries int
	// CacheBytes bounds the result cache's total body bytes (default
	// 256 MiB; negative disables the byte bound). The byte budget is the
	// primary limit — entry counts alone let a few multi-MB simulation
	// responses exhaust memory.
	CacheBytes int64
	// CacheWarmFrom, when set, warm-starts the cache from a snapshot at
	// startup: a file path or an http(s) URL of a peer replica's
	// /v1/cache/snapshot endpoint. Warm-start failures are logged, not
	// fatal — a dead peer must not block a fresh replica.
	CacheWarmFrom string
	// TenantWeights, when non-empty, enables multi-tenant fairness: each
	// entry maps a tenant name to its relative weight, and requests
	// carrying that name in X-Lognic-Tenant are held to weighted shares of
	// Workers, QueueDepth and CacheBytes (see tenant.go). A "default"
	// tenant (weight 1 unless listed) is always added and absorbs requests
	// with no or an unrecognized tenant header. Names must satisfy
	// validTenantName; parseTenantWeights enforces it for flag input and
	// withDefaults drops invalid entries from programmatic configs. Empty
	// disables tenancy entirely — the single-pool behavior is unchanged.
	TenantWeights map[string]float64
	// TenantCacheSpill is the fraction of CacheBytes set aside as a shared
	// spillover pool for entries larger than their tenant's cache
	// partition (0 disables; clamped to 0.9). Only meaningful with
	// TenantWeights.
	TenantCacheSpill float64
	// RequestTimeout bounds each evaluation (default 30s).
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful-shutdown drain (default 30s).
	DrainTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxSimEvents is the default event budget for /v1/simulate requests
	// that don't set max_events (default 50e6); it converts a pathological
	// spec into HTTP 422 instead of a pinned worker.
	MaxSimEvents uint64
	// Registry receives request metrics and serves /metrics (default: a
	// fresh registry).
	Registry *obs.Registry
	// Tracer, when set, receives one span per request plus the job and
	// simulation spans nested under it; the merged tree is exported at
	// GET /v1/trace in Chrome trace_event form.
	Tracer *obs.Tracer
	// TraceSpans, when > 0 and Tracer is nil, builds a Tracer with that
	// ring capacity (the -trace-spans flag).
	TraceSpans int
	// Logger receives the daemon's structured log records (default:
	// discard). Request- and job-scoped records carry request_id,
	// trace_id, endpoint and job_id attributes.
	Logger *slog.Logger
	// Pprof mounts /debug/pprof when true.
	Pprof bool

	// SLOAvailability is the fraction of admitted requests that must not
	// fail with a 5xx (default 0.999; negative disables the objective).
	SLOAvailability float64
	// SLOLatency is the fraction of successful requests that must finish
	// under SLOLatencyThreshold (default 0.99; negative disables).
	SLOLatency float64
	// SLOLatencyThreshold is the latency objective's cutoff (default 1s).
	SLOLatencyThreshold time.Duration

	// JobsDir is the async-job durability directory (journal +
	// checkpoints). Empty runs the job API memory-only: jobs work but do
	// not survive a restart.
	JobsDir string
	// JobsWorkers caps concurrent async evaluations (default 2).
	JobsWorkers int
	// JobMaxAttempts is the per-job attempt budget (default 3).
	JobMaxAttempts int
	// JobBackoff and JobBackoffMax shape the retry delay: attempt k waits
	// min(JobBackoff·2^(k-1), JobBackoffMax), jittered (defaults 200ms/10s).
	JobBackoff    time.Duration
	JobBackoffMax time.Duration
	// JobCheckpointEvery is the simulation checkpoint cadence in processed
	// events for async jobs (0 selects the default 1e6).
	JobCheckpointEvery uint64
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8080"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16 * c.Workers
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxSimEvents == 0 {
		c.MaxSimEvents = 50e6
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Tracer == nil && c.TraceSpans > 0 {
		c.Tracer = obs.NewTracer(c.TraceSpans)
	}
	if c.Logger == nil {
		c.Logger = olog.Discard()
	}
	if c.SLOAvailability == 0 {
		c.SLOAvailability = 0.999
	} else if c.SLOAvailability < 0 {
		c.SLOAvailability = 0
	}
	if c.SLOLatency == 0 {
		c.SLOLatency = 0.99
	} else if c.SLOLatency < 0 {
		c.SLOLatency = 0
	}
	if c.SLOLatencyThreshold <= 0 {
		c.SLOLatencyThreshold = time.Second
	}
	if c.JobsWorkers <= 0 {
		c.JobsWorkers = 2
	}
	if c.JobCheckpointEvery == 0 {
		c.JobCheckpointEvery = 1_000_000
	}
	if len(c.TenantWeights) > 0 {
		tw := make(map[string]float64, len(c.TenantWeights)+1)
		for name, wt := range c.TenantWeights {
			if wt > 0 && validTenantName(name) == nil {
				tw[name] = wt
			}
		}
		if _, ok := tw[defaultTenant]; !ok {
			tw[defaultTenant] = 1
		}
		c.TenantWeights = tw
		// Every tenant is guaranteed one worker and one queue slot, so the
		// pools must be at least tenant-sized.
		if c.Workers < len(tw) {
			c.Workers = len(tw)
		}
		if c.QueueDepth < len(tw) {
			c.QueueDepth = len(tw)
		}
		if c.TenantCacheSpill < 0 {
			c.TenantCacheSpill = 0
		} else if c.TenantCacheSpill > 0.9 {
			c.TenantCacheSpill = 0.9
		}
	} else {
		c.TenantWeights = nil
		c.TenantCacheSpill = 0
	}
	return c
}

// Server is one daemon instance.
type Server struct {
	cfg   Config
	cache *lruCache
	// l1 maps exact request bytes (endpoint NUL body) to the canonical
	// cache key, short-circuiting the hit path: a repeated identical
	// request skips JSON decode, spec validation and canonical hashing
	// entirely. It is an index over cache, not a second copy of the
	// responses — a canonical entry evicted from cache falls through to
	// the full prepare path regardless of what l1 remembers.
	l1 *lruCache
	// cacheOn records whether caching is configured at all — with tenancy
	// enabled the canonical tier lives in per-tenant partitions and both
	// cache and l1 above stay nil.
	cacheOn bool
	// tenants maps configured tenant names to their state (empty when
	// tenancy is disabled); tenantNames is the sorted key list, the stable
	// iteration order for snapshots and /v1/slo. spill is the shared
	// spillover pool for entries larger than their tenant's partition
	// (nil unless TenantCacheSpill > 0).
	tenants      map[string]*tenant
	tenantNames  []string
	spill        *lruCache
	spillBytes   *obs.Gauge
	spillEntries *obs.Gauge
	// sem holds one token per running evaluation; queued counts requests
	// waiting for a token. queued > QueueDepth ⇒ shed load. With tenancy
	// enabled admission runs on the per-tenant semaphores instead and sem
	// sits idle; queued still tracks the global backlog.
	sem    chan struct{}
	queued atomic.Int64
	ln     net.Listener
	start  time.Time
	reqID  atomic.Uint64

	// svcMean is an EWMA of recent evaluation wall times (float64 bits),
	// feeding the Retry-After estimate: a shed request should come back
	// roughly when the queue ahead of it has drained.
	svcMean atomic.Uint64
	// drainStart is the drain's start time in unix nanos (0 before it),
	// so Retry-After during the drain reports the time actually left.
	drainStart atomic.Int64

	// jobs is the async job subsystem; jobsReady flips once its journal
	// replay finished, draining once shutdown began. /readyz and the
	// /v1/jobs endpoints key off both.
	jobs      *jobs.Manager
	jobsReady atomic.Bool
	draining  atomic.Bool

	logger *slog.Logger

	// slo grades the request stream against the configured objectives;
	// the counters feed its Source and count admitted requests only —
	// load-shed 429s never consume error budget.
	slo       *slo.Monitor
	sloTotal  atomic.Uint64
	sloErrors atomic.Uint64
	sloSlow   atomic.Uint64
	// sloPolled rate-limits on-demand polls from /v1/slo (unix nanos of
	// the last forced sample).
	sloPolled atomic.Int64

	closeOnce sync.Once

	latency    map[string]*obs.Histogram
	hits       *obs.Counter
	l1Hits     *obs.Counter
	misses     *obs.Counter
	rejected   *obs.Counter
	entries    *obs.Gauge
	cacheBytes *obs.Gauge
	hitRatio   *obs.Gauge
	inflight   *obs.Gauge
	queueLen   *obs.Gauge

	// testDelay, when set by tests, runs inside the worker slot before the
	// evaluation — a deterministic way to hold requests in flight for
	// backpressure and drain tests.
	testDelay func(endpoint string)
}

// endpoints, in route order.
var endpoints = []string{"estimate", "optimize", "simulate"}

// NewServer builds a daemon from the config (it does not listen yet).
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.Workers),
		start: time.Now(),
	}
	s.cacheOn = cfg.CacheEntries > 0
	if s.cacheOn && len(cfg.TenantWeights) == 0 {
		s.cache = newLRU(cfg.CacheEntries, cfg.CacheBytes)
		// The L1 keys on whole request bodies, so it gets a quarter of the
		// byte budget — enough to index every hot entry without competing
		// with the responses themselves for memory.
		l1Bytes := cfg.CacheBytes / 4
		if cfg.CacheBytes <= 0 {
			l1Bytes = 0
		}
		s.l1 = newLRU(cfg.CacheEntries, l1Bytes)
	}
	s.logger = cfg.Logger
	reg := cfg.Registry
	obs.RegisterBuildInfo(reg)
	s.latency = make(map[string]*obs.Histogram, len(endpoints))
	for _, ep := range endpoints {
		s.latency[ep] = reg.Histogram("lognic_serve_request_seconds",
			"request latency by endpoint",
			obs.ExpBuckets(1e-5, 4, 14), obs.Labels{"endpoint": ep})
	}
	s.hits = reg.Counter("lognic_serve_cache_hits_total", "result cache hits", nil)
	s.l1Hits = reg.Counter("lognic_serve_cache_l1_hits_total", "hits served from the exact-body L1 index, skipping request parsing", nil)
	s.misses = reg.Counter("lognic_serve_cache_misses_total", "result cache misses", nil)
	s.rejected = reg.Counter("lognic_serve_rejected_total", "requests shed with 429", nil)
	s.entries = reg.Gauge("lognic_serve_cache_entries", "result cache occupancy", nil)
	s.cacheBytes = reg.Gauge("lognic_serve_cache_bytes", "result cache body bytes", nil)
	s.hitRatio = reg.Gauge("lognic_serve_cache_hit_ratio", "hits / (hits+misses)", nil)
	s.inflight = reg.Gauge("lognic_serve_inflight", "evaluations running", nil)
	s.queueLen = reg.Gauge("lognic_serve_queue_depth", "requests waiting for a worker", nil)
	s.initTenants()

	// The SLO monitor samples the request counters on its own cadence;
	// /v1/slo serves its judgement.
	s.slo = slo.NewMonitor(slo.Config{
		AvailabilityTarget: cfg.SLOAvailability,
		LatencyTarget:      cfg.SLOLatency,
		LatencyThreshold:   cfg.SLOLatencyThreshold,
		Source: func() slo.Sample {
			return slo.Sample{
				Total:  s.sloTotal.Load(),
				Errors: s.sloErrors.Load(),
				Slow:   s.sloSlow.Load(),
			}
		},
		Registry: reg,
	})
	s.slo.Start()

	// The async job manager. NewManager only errors on a nil evaluator,
	// which we always supply. It shares the request tracer and the
	// request-span clock, so job and simulation spans land on the same
	// timeline as the requests that submitted them.
	s.jobs, _ = jobs.NewManager(jobs.Config{
		Dir:         cfg.JobsDir,
		Workers:     cfg.JobsWorkers,
		MaxAttempts: cfg.JobMaxAttempts,
		BackoffBase: cfg.JobBackoff,
		BackoffMax:  cfg.JobBackoffMax,
		Evaluate:    s.evalJob,
		Registry:    reg,
		Logger:      cfg.Logger,
		Tracer:      cfg.Tracer,
		SpanTime:    func() float64 { return time.Since(s.start).Seconds() },
	})
	// Journal replay happens off the constructor so a large journal never
	// delays binding the listener; /readyz and the job endpoints report
	// 503 until it completes.
	go func() {
		if err := s.jobs.Start(); err != nil {
			s.logger.Error("job manager start failed", olog.KeyComponent, "serve", "error", err.Error())
			return
		}
		s.jobsReady.Store(true)
	}()
	return s
}

// Close releases the server's background resources — the job manager's
// workers, retry timers and journal, and the SLO monitor's poll loop.
// Running job attempts are interrupted and stay queued, exactly as a
// crash would leave them, so a successor over the same JobsDir resumes
// them.
func (s *Server) Close() {
	s.jobs.Close()
	s.closeOnce.Do(func() {
		s.slo.Close()
		for _, t := range s.tenants {
			t.slo.Close()
		}
	})
}

// Handler returns the daemon's routing handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/estimate", s.handle("estimate", s.prepareEstimate))
	mux.HandleFunc("POST /v1/optimize", s.handle("optimize", s.prepareOptimize))
	mux.HandleFunc("POST /v1/simulate", s.handle("simulate", s.prepareSimulate))
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/cache/snapshot", s.handleCacheSnapshot)
	mux.HandleFunc("GET /v1/slo", s.handleSLO)
	mux.HandleFunc("GET /v1/trace", s.handleTrace)
	mux.Handle("/metrics", s.cfg.Registry)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		version, goVersion, revision := obs.BuildInfo()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"status":         "ok",
			"uptime_seconds": time.Since(s.start).Seconds(),
			"version":        version,
			"go_version":     goVersion,
			"revision":       revision,
		})
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}

// readBody drains a request body under the size cap.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		return nil, fmt.Errorf("serve: reading body: %w", err)
	}
	return body, nil
}

// bodyStatus maps a body-read failure to its status: 413 for an
// over-limit body, 400 for anything else.
func bodyStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// statusFor maps an evaluation error to an HTTP status.
func statusFor(err error) int {
	var br badRequest
	switch {
	case errors.As(err, &br):
		return http.StatusBadRequest
	case errors.Is(err, optimizer.ErrNoFeasible),
		errors.Is(err, sim.ErrBudgetExceeded),
		errors.Is(err, sim.ErrStalled),
		errors.Is(err, eval.ErrNonFinite):
		// The request was well-formed but the model rejected it: no
		// feasible configuration, a simulation that blew its budget, or a
		// spec that drives the model out of floating-point range.
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// handle wraps one endpoint's prepare function with the shared request
// path: body limit → decode/validate → cache probe → admission control →
// evaluate under timeout → serialize, cache, reply.
func (s *Server) handle(endpoint string, prepare func([]byte) (prepared, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		timer := s.latency[endpoint].StartTimer()
		code := http.StatusOK

		// Accept the client's W3C trace context or mint a fresh one; the
		// server span is a child of the client's span, and its span id is
		// echoed as X-Request-Id so client logs and server logs correlate.
		tc, parentSpan := s.requestTrace(r)
		w.Header().Set("X-Request-Id", tc.SpanID)
		// Tenant resolution: logs carry the claimed name verbatim, metrics
		// and admission use the resolved bucket (bounded cardinality).
		claimed := claimedTenant(r)
		ten := s.tenantFor(claimed)
		logTenant := claimed
		if logTenant == "" && ten != nil {
			logTenant = ten.name
		}
		rl := olog.WithRequest(s.logger, tc.SpanID, tc.TraceID, endpoint, logTenant)
		ctx0 := olog.NewContext(obs.ContextWithTrace(r.Context(), tc), rl)
		r = r.WithContext(ctx0)

		defer func() {
			d := timer.ObserveDuration()
			labels := obs.Labels{"endpoint": endpoint, "code": fmt.Sprint(code)}
			if ten != nil {
				labels["tenant"] = ten.name
			}
			s.cfg.Registry.Counter("lognic_serve_requests_total", "requests by endpoint and status",
				labels).Inc()
			// SLO accounting: 429s are load shedding, not budget burn;
			// 5xx burns availability; slow successes burn latency.
			if code != http.StatusTooManyRequests {
				s.sloTotal.Add(1)
				if ten != nil {
					ten.sloTotal.Add(1)
				}
				switch {
				case code >= 500:
					s.sloErrors.Add(1)
					if ten != nil {
						ten.sloErrors.Add(1)
					}
				case code < 400 && d > s.cfg.SLOLatencyThreshold:
					s.sloSlow.Add(1)
					if ten != nil {
						ten.sloSlow.Add(1)
					}
				}
			}
			lvl := slog.LevelDebug
			if code >= 500 {
				lvl = slog.LevelWarn
			}
			rl.Log(r.Context(), lvl, "request complete", "code", code, "duration_seconds", d.Seconds())
		}()
		if s.cfg.Tracer != nil {
			startAt := time.Since(s.start).Seconds()
			id := s.reqID.Add(1)
			defer func() {
				args := map[string]any{"code": code}
				if ten != nil {
					args["tenant"] = ten.name
				}
				s.cfg.Tracer.Emit(obs.Span{
					Name:     endpoint,
					Cat:      "request",
					Track:    id,
					Start:    startAt,
					Dur:      time.Since(s.start).Seconds() - startAt,
					Args:     args,
					TraceID:  tc.TraceID,
					SpanID:   tc.SpanID,
					ParentID: parentSpan,
				})
			}()
		}

		body, err := readBody(w, r, s.cfg.MaxBodyBytes)
		if err != nil {
			code = bodyStatus(err)
			writeError(w, code, err)
			return
		}

		// L1 probe: a byte-identical repeat of a cached request is served
		// before the body is even parsed. Safe because the L1 only ever
		// redirects into the canonical cache — a stale index entry just
		// misses and falls through to the full path.
		var l1key string
		if l1 := s.l1For(ten); l1 != nil {
			l1key = endpoint + "\x00" + string(body)
			if ck, ok := l1.Get(l1key); ok {
				if cached, ok := s.cacheGet(ten, string(ck)); ok {
					s.countHit(ten, true)
					w.Header().Set("Content-Type", "application/json")
					w.Header().Set("X-Cache", "hit")
					_, _ = w.Write(cached)
					return
				}
				// The canonical tier evicted this key, so the index entry is
				// dead weight: its key is a whole request body, it pins real
				// memory in the L1 byte budget, and it can only ever re-miss.
				// Prune it now; the full path re-creates it if the response
				// is cached again.
				l1.Delete(l1key)
			}
		}

		p, err := prepare(body)
		if err != nil {
			code = statusFor(err)
			writeError(w, code, err)
			return
		}

		// Cache probe. Hits bypass the worker pool entirely: replaying
		// cached bytes is cheap and must stay available under saturation.
		if cached, ok := s.cacheGet(ten, p.key); ok {
			s.countHit(ten, false)
			s.l1For(ten).Put(l1key, []byte(p.key))
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Cache", "hit")
			_, _ = w.Write(cached)
			return
		}

		// Admission: bound the number of requests waiting for a worker.
		// With tenancy enabled the request is first held to its tenant's
		// reserved share of the queue, so a saturating tenant sheds against
		// its own budget while other tenants keep admitting.
		if ten != nil {
			if tq := ten.queued.Add(1); tq > int64(ten.queueShare) {
				ten.queued.Add(-1)
				ten.queueLen.Set(float64(ten.queued.Load()))
				ten.rejected.Inc()
				s.rejected.Inc()
				code = http.StatusTooManyRequests
				w.Header().Set("Retry-After", retryAfterValue(s.tenantDrainEstimate(ten)))
				writeError(w, code, fmt.Errorf("serve: %s queue full for tenant %q (%d waiting)", endpoint, ten.name, tq-1))
				return
			}
			ten.queueLen.Set(float64(ten.queued.Load()))
		}
		if q := s.queued.Add(1); q > int64(s.cfg.QueueDepth) {
			s.queued.Add(-1)
			// Refresh the gauge on the shed path too: under sustained
			// saturation every request takes this branch, and without the
			// refresh the gauge freezes at whatever the last admitted
			// request set it to.
			s.queueLen.Set(float64(s.queued.Load()))
			if ten != nil {
				ten.queued.Add(-1)
				ten.queueLen.Set(float64(ten.queued.Load()))
				ten.rejected.Inc()
			}
			s.rejected.Inc()
			code = http.StatusTooManyRequests
			w.Header().Set("Retry-After", retryAfterValue(s.queueDrainEstimate()))
			writeError(w, code, fmt.Errorf("serve: %s queue full (%d waiting)", endpoint, q-1))
			return
		}
		s.queueLen.Set(float64(s.queued.Load()))

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		// With tenancy the evaluation slot comes from the tenant's reserved
		// semaphore — a heavy tenant can exhaust its own slots but never
		// occupies another tenant's.
		sem := s.sem
		if ten != nil {
			sem = ten.sem
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			s.queued.Add(-1)
			s.queueLen.Set(float64(s.queued.Load()))
			if ten != nil {
				ten.queued.Add(-1)
				ten.queueLen.Set(float64(ten.queued.Load()))
			}
			code = statusFor(ctx.Err())
			writeError(w, code, fmt.Errorf("serve: timed out waiting for a worker: %w", ctx.Err()))
			return
		}
		s.queued.Add(-1)
		s.queueLen.Set(float64(s.queued.Load()))
		if ten != nil {
			ten.queued.Add(-1)
			ten.queueLen.Set(float64(ten.queued.Load()))
			ten.inflight.Add(1)
		}
		s.inflight.Add(1)
		result, err := func() (any, error) {
			defer func() {
				<-sem
				s.inflight.Add(-1)
				if ten != nil {
					ten.inflight.Add(-1)
				}
			}()
			if s.testDelay != nil {
				s.testDelay(endpoint)
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			evalStart := time.Now()
			res, err := p.run(ctx, nil)
			s.observeServiceTime(time.Since(evalStart))
			return res, err
		}()
		if err != nil {
			code = statusFor(err)
			writeError(w, code, err)
			return
		}

		out, err := eval.Encode(result)
		if err != nil {
			code = statusFor(err)
			writeError(w, code, err)
			return
		}
		// Miss accounting only applies when a cache exists to miss: a
		// server started with caching disabled must report no cache
		// traffic (and no 0.0 hit ratio for a cache that isn't there).
		if s.cacheOn {
			s.misses.Inc()
			if ten != nil {
				ten.misses.Inc()
			}
			s.cachePut(ten, p.key, out)
			s.l1For(ten).Put(l1key, []byte(p.key))
			s.updateCacheGauges()
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "miss")
		_, _ = w.Write(out)
	}
}

func (s *Server) updateCacheGauges() {
	switch {
	case len(s.tenants) > 0 && s.cacheOn:
		// Partition gauges per tenant; the unlabeled aggregates stay the
		// fleet-wide view (partitions plus spillover) so dashboards built
		// on them keep working when tenancy is switched on.
		var n int
		var b int64
		for _, name := range s.tenantNames {
			t := s.tenants[name]
			tn, tb := t.cache.Len(), t.cache.Bytes()
			t.partEntries.Set(float64(tn))
			t.partBytes.Set(float64(tb))
			n += tn
			b += tb
		}
		if s.spill != nil {
			sn, sb := s.spill.Len(), s.spill.Bytes()
			s.spillEntries.Set(float64(sn))
			s.spillBytes.Set(float64(sb))
			n += sn
			b += sb
		}
		s.entries.Set(float64(n))
		s.cacheBytes.Set(float64(b))
	case s.cache != nil:
		s.entries.Set(float64(s.cache.Len()))
		s.cacheBytes.Set(float64(s.cache.Bytes()))
	}
	h, m := s.hits.Value(), s.misses.Value()
	if h+m > 0 {
		s.hitRatio.Set(h / (h + m))
	}
}

// observeServiceTime folds one evaluation's wall time into the EWMA that
// backs the Retry-After estimate. α=0.2 keeps it "recent": ~5 evaluations
// of history, so a shift in the workload mix reshapes the hint quickly.
func (s *Server) observeServiceTime(d time.Duration) {
	sec := d.Seconds()
	for {
		old := s.svcMean.Load()
		mean := math.Float64frombits(old)
		if mean <= 0 {
			mean = sec
		} else {
			mean = 0.8*mean + 0.2*sec
		}
		if s.svcMean.CompareAndSwap(old, math.Float64bits(mean)) {
			return
		}
	}
}

// queueDrainEstimate predicts how long a shed request should wait before
// retrying: the queue ahead of it divided across the worker pool, at the
// recent mean service time. Before any evaluation completes it assumes a
// cheap one — better to invite an early retry than park clients a minute.
func (s *Server) queueDrainEstimate() time.Duration {
	mean := math.Float64frombits(s.svcMean.Load())
	if mean <= 0 {
		mean = 0.05
	}
	drain := float64(s.queued.Load()) * mean / float64(s.cfg.Workers)
	return time.Duration(drain * float64(time.Second))
}

// retryAfterValue renders a drain estimate as a Retry-After header value:
// whole seconds, rounded up, clamped to [1, 60] — a shed client should
// neither hammer sub-second nor be parked past a minute on a guess.
func retryAfterValue(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return strconv.FormatInt(secs, 10)
}

// Listen binds the configured address. Call before Serve to learn the
// bound port (Addr) — e.g. with Addr ":0".
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr reports the bound listen address ("" before Listen).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve runs the daemon until the context is canceled or SIGTERM/SIGINT
// arrives, then drains: the listener closes, in-flight requests get up to
// DrainTimeout to finish, and Serve returns nil on a clean drain. Listen
// is called implicitly if it hasn't been.
func (s *Server) Serve(ctx context.Context) error {
	if s.ln == nil {
		if err := s.Listen(); err != nil {
			return err
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Slow-client hardening: a peer that trickles its header or parks an
	// idle keep-alive connection must not pin a goroutine forever. Request
	// bodies are separately bounded by MaxBytesReader in the handlers.
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(s.ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Flip readiness first so /readyz steers load balancers away while
	// in-flight requests finish, then stop catching signals so a second
	// SIGTERM kills a stuck drain.
	s.drainStart.Store(time.Now().UnixNano())
	s.draining.Store(true)
	stop()
	shutCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(shutCtx)
	// Stop the job workers after the HTTP drain: interrupted attempts stay
	// journaled as queued, so a restart resumes them from their last
	// checkpoint — the same contract as a crash, minus the torn tail.
	s.Close()
	if err != nil {
		return fmt.Errorf("serve: drain incomplete: %w", err)
	}
	return nil
}

// Main is the lognic-serve entry point (also reachable as `lognic serve`).
func Main(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet(stderr)
	cfg, err := parseFlags(fs, args)
	if err != nil {
		return 2
	}
	srv := NewServer(cfg)
	lg := srv.logger
	if err := srv.Listen(); err != nil {
		return olog.Fail(lg, "listen failed", olog.KeyComponent, "serve", "error", err.Error())
	}
	if cfg.CacheWarmFrom != "" {
		n, nbytes, err := srv.WarmCache(cfg.CacheWarmFrom)
		if err != nil {
			// Warm-start is an optimization: a dead peer or a stale file
			// must not block a fresh replica from serving cold.
			lg.Warn("cache warm-start failed", olog.KeyComponent, "serve",
				"source", cfg.CacheWarmFrom, "error", err.Error())
		} else {
			fmt.Fprintf(stdout, "lognic-serve: cache warmed with %d entries (%d bytes) from %s\n",
				n, nbytes, cfg.CacheWarmFrom)
		}
	}
	jobsDir := srv.cfg.JobsDir
	if jobsDir == "" {
		jobsDir = "memory-only"
	}
	fmt.Fprintf(stdout, "lognic-serve listening on http://%s (workers %d, queue %d, cache %d entries/%d bytes, jobs %s)\n",
		srv.Addr(), srv.cfg.Workers, srv.cfg.QueueDepth, srv.cfg.CacheEntries, srv.cfg.CacheBytes, jobsDir)
	if err := srv.Serve(context.Background()); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return olog.Fail(lg, "serve failed", olog.KeyComponent, "serve", "error", err.Error())
	}
	fmt.Fprintln(stdout, "lognic-serve drained cleanly")
	return 0
}
