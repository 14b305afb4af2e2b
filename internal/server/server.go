// Package server implements polaris-serve: a long-running HTTP/JSON
// front end over the Polaris compilation pipeline — compile as a
// service, in the spirit of the interactive/demand-driven compiler
// front ends the paper's related work describes (analysis results are
// computed once and served many times).
//
// Request flow:
//
//	telemetry middleware (request ID, latency histogram, access log)
//	→ admission (worker pool + fixed-depth queue, overflow shed with 429
//	  and a drain-rate-derived Retry-After)
//	→ per-request deadline (propagates through passes.Context)
//	→ singleflight bounded-LRU compile cache (a store.Store for the keys
//	  this node owns, a smaller one for keys a fabric peer owns; the
//	  request ID rides the context so coalesced waiters can name their
//	  leader)
//	→ instrumented pass manager (panics isolated into *core.PipelineError),
//	  its result kept as the encoded wire entry a peer fill ships
//	→ a view of the entry decoded under the request's label into pooled
//	  scratch (an emit decodes the whole program)
//
// Every request resolves to one outcome — cold, cache_hit, coalesced,
// shed, timeout, canceled, error (or ok for plain GETs) — recorded in
// a per-(route, outcome) latency histogram, echoed in the response
// body, and written as one structured log/slog access line.
//
// Endpoints: POST /v1/compile, POST /v1/explain, POST /v1/emit,
// GET /healthz, GET /metrics (JSON, or Prometheus text exposition with
// ?format=prometheus). SIGTERM handling lives in cmd/polaris-serve:
// the listener stops, in-flight compiles drain, and the process exits
// 0.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"polaris/internal/core"
	"polaris/internal/fabric"
	"polaris/internal/obsv"
	"polaris/internal/store"
	"polaris/internal/telemetry"
)

// Config sizes the service. Zero fields take the documented defaults.
type Config struct {
	// Workers bounds concurrent compilations (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker beyond the pool
	// itself; overflow is shed with 429 + Retry-After (default: 64).
	QueueDepth int
	// DefaultTimeout is the per-request compile deadline when the
	// request names none (default: 10s). MaxTimeout caps what a request
	// may ask for (default: 30s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxSourceBytes bounds the request body (default: 1 MiB).
	MaxSourceBytes int64
	// CacheEntries / CacheBytes bound the shared compile cache's LRU
	// (defaults: 1024 entries, 64 MiB). The cache is what keeps memory
	// flat under millions of distinct sources. They bound the keys this
	// node owns, which on a single node is every key; a fabric node
	// holds keys a peer owns in a hot tier of its own, bounded at 1/8 of
	// each (at least one entry and one byte).
	CacheEntries int
	CacheBytes   int64
	// UnitMemoEntries / UnitMemoBytes bound the per-unit incremental
	// memo shared by ?incremental=1 compiles (defaults: 4096 entries,
	// 64 MiB). The memo is keyed by unit-source hash, so edits that
	// touch one unit of a large program recompile only that unit.
	UnitMemoEntries int
	UnitMemoBytes   int64
	// AccessLog receives one structured line per request (id, route,
	// status, outcome, latency, cache status, leader id). Nil disables
	// access logging.
	AccessLog *slog.Logger
	// Fabric joins this node to a peer tier: compile cache keys are
	// consistent-hash routed across the ring, and a miss here asks the
	// key's owner for the finished entry before compiling locally. Nil
	// means single-node (no peer endpoints are mounted).
	Fabric *fabric.Fabric
	// FabricFault scripts owner-side fill faults per protocol stage
	// (dead-peer tests only; nil in production).
	FabricFault fabric.FaultFunc
	// TenantHeader names the request header carrying the tenant token
	// for per-tenant admission budgets (default "X-Polaris-Tenant").
	// Requests without the header share only the global budget.
	TenantHeader string
	// TenantShare is the fraction of total admission capacity
	// (Workers+QueueDepth) any single tenant may hold, minimum one slot
	// (default 0.5). One flooding tenant sheds at its budget while
	// others keep compiling.
	TenantShare float64
	// MaxBatchItems caps the items in one batch compile (default 64).
	MaxBatchItems int
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 1 << 20
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.UnitMemoEntries <= 0 {
		c.UnitMemoEntries = 4096
	}
	if c.UnitMemoBytes <= 0 {
		c.UnitMemoBytes = 64 << 20
	}
	if c.TenantHeader == "" {
		c.TenantHeader = "X-Polaris-Tenant"
	}
	if c.TenantShare <= 0 || c.TenantShare > 1 {
		c.TenantShare = 0.5
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 64
	}
}

// Server is the compile service. Create with New; serve with Serve (or
// mount Handler on an existing mux); stop with Shutdown, which drains
// in-flight requests.
type Server struct {
	cfg       Config
	obs       *obsv.Observer       // shared expvar-style counters
	cache     *tier                // main: owned compiled and baseline entries under one bound
	hot       *tier                // peer-owned entries, an eighth of main's bounds
	memo      *core.UnitMemo       // per-unit incremental memo (?incremental=1)
	tel       *telemetry.Registry  // per-(route, outcome) latency histograms
	queueWait *telemetry.Histogram // admission wait per admitted request
	accessLog *slog.Logger

	slots        chan struct{} // worker slots (admission)
	queued       atomic.Int64  // admitted requests: waiting + running
	inflight     atomic.Int64  // requests holding a worker slot
	httpInflight atomic.Int64  // requests inside any handler (all routes)
	shed         atomic.Int64  // requests rejected with 429
	draining     atomic.Bool

	// Per-tenant admitted-request counts behind the tenant budgets.
	tenantMu sync.Mutex
	tenants  map[string]*atomic.Int64

	// Per-route completion-history rings behind the drain-rate
	// Retry-After hint (a flood of cheap /v1/explain completions must
	// not deflate the hint handed to shed compile requests).
	drainMu sync.Mutex
	drains  map[string]*drainRing

	fabric *fabric.Fabric
	fault  fabric.FaultFunc

	http *http.Server
	mux  *http.ServeMux
}

// New returns a Server sized by cfg.
func New(cfg Config) *Server {
	cfg.applyDefaults()
	s := &Server{
		cfg:       cfg,
		obs:       obsv.NewObserver(),
		cache:     store.New[cacheKey, *cacheEntry](store.Limits{MaxEntries: cfg.CacheEntries, MaxBytes: cfg.CacheBytes}),
		hot:       store.New[cacheKey, *cacheEntry](store.Limits{MaxEntries: max(1, cfg.CacheEntries/8), MaxBytes: max(1, cfg.CacheBytes/8)}),
		memo:      core.NewUnitMemo(core.MemoLimits{MaxEntries: cfg.UnitMemoEntries, MaxBytes: cfg.UnitMemoBytes}),
		tel:       telemetry.NewRegistry(),
		queueWait: &telemetry.Histogram{},
		accessLog: cfg.AccessLog,
		slots:     make(chan struct{}, cfg.Workers),
		tenants:   map[string]*atomic.Int64{},
		drains:    map[string]*drainRing{},
		fabric:    cfg.Fabric,
		fault:     cfg.FabricFault,
	}
	if s.accessLog == nil {
		s.accessLog = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/compile", s.instrument("compile", s.recovered(s.handleCompile)))
	s.mux.HandleFunc("POST /v1/emit", s.instrument("emit", s.recovered(s.handleEmit)))
	s.mux.HandleFunc("POST /v1/explain", s.instrument("explain", s.recovered(s.handleExplain)))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	if s.fabric != nil {
		s.mux.HandleFunc("POST "+fabric.FillPath, s.instrument("fabric_fill", s.recovered(s.handleFabricFill)))
		s.mux.HandleFunc("POST "+fabric.OwnerPath, s.instrument("fabric_owner", s.recovered(s.handleFabricOwner)))
	}
	s.http = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Handler returns the service's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// CacheStats snapshots the compile cache: the totals over the main
// cache and the hot tier.
func (s *Server) CacheStats() store.Stats {
	m, h := s.cache.Stats(), s.hot.Stats()
	return store.Stats{
		Entries:   m.Entries + h.Entries,
		Bytes:     m.Bytes + h.Bytes,
		Hits:      m.Hits + h.Hits,
		Misses:    m.Misses + h.Misses,
		Evictions: m.Evictions + h.Evictions,
		Retries:   m.Retries + h.Retries,
	}
}

// Serve accepts connections on l until Shutdown. Like http.Server, it
// returns http.ErrServerClosed after a clean shutdown.
func (s *Server) Serve(l net.Listener) error { return s.http.Serve(l) }

// Shutdown drains the server: the listener closes, /healthz flips to
// 503, and every accepted request runs to completion (in-flight
// compile deadlines still apply). Returns when drained or when ctx
// expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	return s.http.Shutdown(ctx)
}

// tenantCount returns the admitted-request counter for one tenant
// token, creating it on first sight. Counters are never deleted — the
// token space is operator-issued, not attacker-controlled.
func (s *Server) tenantCount(tenant string) *atomic.Int64 {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	c, ok := s.tenants[tenant]
	if !ok {
		c = &atomic.Int64{}
		s.tenants[tenant] = c
	}
	return c
}

// tenantLimit is the per-tenant admission budget: a share of the total
// capacity, never below one slot (a tenant can always make progress).
func (s *Server) tenantLimit() int64 {
	lim := int64(s.cfg.TenantShare * float64(s.cfg.Workers+s.cfg.QueueDepth))
	if lim < 1 {
		lim = 1
	}
	return lim
}

// admit acquires a worker slot, queueing up to QueueDepth requests
// beyond the pool. A non-empty tenant token is additionally charged
// against that tenant's budget, so one flooding tenant sheds at its
// share while the rest of the fleet keeps compiling. It returns a
// release function on success; a nil release with shed=true means a
// budget was exhausted (429); a nil release with shed=false means ctx
// ended while queued. The time spent waiting for a slot feeds the
// queue-wait histogram, and each release feeds the per-route
// completion history behind the Retry-After hint.
func (s *Server) admit(ctx context.Context, route, tenant string) (release func(), shed bool) {
	var tc *atomic.Int64
	if tenant != "" {
		tc = s.tenantCount(tenant)
		if tc.Add(1) > s.tenantLimit() {
			tc.Add(-1)
			s.shed.Add(1)
			s.obs.Count("server_shed_total", 1)
			s.obs.Count("server_tenant_shed_total", 1)
			return nil, true
		}
	}
	tenantDone := func() {
		if tc != nil {
			tc.Add(-1)
		}
	}
	limit := int64(s.cfg.Workers + s.cfg.QueueDepth)
	if n := s.queued.Add(1); n > limit {
		s.queued.Add(-1)
		tenantDone()
		s.shed.Add(1)
		s.obs.Count("server_shed_total", 1)
		return nil, true
	}
	start := time.Now()
	select {
	case s.slots <- struct{}{}:
		s.queueWait.Record(time.Since(start))
		s.inflight.Add(1)
		return func() {
			s.inflight.Add(-1)
			<-s.slots
			s.queued.Add(-1)
			tenantDone()
			s.noteCompletion(route, time.Now())
		}, false
	case <-ctx.Done():
		s.queued.Add(-1)
		tenantDone()
		return nil, false
	}
}

// tenantFor extracts the request's tenant token, if any.
func (s *Server) tenantFor(r *http.Request) string {
	return r.Header.Get(s.cfg.TenantHeader)
}

// deadline resolves a request's compile timeout from its timeout_ms
// field, clamped to [1ms, MaxTimeout], defaulting to DefaultTimeout.
func (s *Server) deadline(timeoutMS int64) time.Duration {
	if timeoutMS <= 0 {
		return s.cfg.DefaultTimeout
	}
	// Compared in milliseconds: the product would wrap for large values.
	if timeoutMS > s.cfg.MaxTimeout.Milliseconds() {
		return s.cfg.MaxTimeout
	}
	return time.Duration(timeoutMS) * time.Millisecond
}

// recovered is the last-resort panic boundary: pass panics are already
// isolated into *core.PipelineError by the pass manager, and this
// middleware keeps any other handler panic from killing the process.
// http.ErrAbortHandler passes through — it is the deliberate
// abort-this-connection signal (fault injection uses it to die
// mid-body) and net/http handles it.
func (s *Server) recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				if err, ok := v.(error); ok && errors.Is(err, http.ErrAbortHandler) {
					panic(v)
				}
				s.obs.Count("server_panics_total", 1)
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", v), "")
			}
		}()
		h(w, r)
	}
}

// compileOptions resolves a request's technique selection: nil or
// empty means the full Polaris set.
func compileOptions(names []string) (core.Options, error) {
	if len(names) == 0 {
		return core.PolarisOptions(), nil
	}
	return core.OptionsFromNames(names)
}
