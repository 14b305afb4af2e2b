package server

import (
	"net/http"
	"sort"

	"polaris/internal/telemetry"
)

// Metrics is the GET /metrics JSON document: the shared obsv counters,
// cache and admission-queue gauges, the in-flight HTTP request gauge,
// and the per-(route, outcome) latency histograms with derived
// quantiles. The same data renders as Prometheus text exposition with
// ?format=prometheus.
type Metrics struct {
	Counters map[string]int64 `json:"counters"`
	// Cache totals the compile cache over both tiers; Hot is the tier of
	// peer-owned keys alone (all zero on a single node).
	Cache struct {
		Entries   int     `json:"entries"`
		Bytes     int64   `json:"bytes"`
		Hits      int64   `json:"hits"`
		Misses    int64   `json:"misses"`
		Evictions int64   `json:"evictions"`
		Retries   int64   `json:"retries"`
		HitRatio  float64 `json:"hit_ratio"`
		Hot       struct {
			Entries   int   `json:"entries"`
			Bytes     int64 `json:"bytes"`
			Hits      int64 `json:"hits"`
			Misses    int64 `json:"misses"`
			Evictions int64 `json:"evictions"`
		} `json:"hot"`
	} `json:"cache"`
	// UnitMemo is the per-unit incremental memo behind ?incremental=1
	// compiles (hits/misses count unit-level lookups, not requests).
	UnitMemo struct {
		Entries   int     `json:"entries"`
		Bytes     int64   `json:"bytes"`
		Hits      int64   `json:"hits"`
		Misses    int64   `json:"misses"`
		Evictions int64   `json:"evictions"`
		HitRatio  float64 `json:"hit_ratio"`
	} `json:"unit_memo"`
	Queue struct {
		Workers  int   `json:"workers"`
		Depth    int   `json:"depth"`
		Inflight int64 `json:"inflight"`
		Queued   int64 `json:"queued"`
		Shed     int64 `json:"shed_total"`
	} `json:"queue"`
	// InFlightRequests counts requests currently inside any handler
	// (all routes, including plain GETs — a superset of Queue.Inflight,
	// which counts only requests holding a compile worker slot).
	InFlightRequests int64 `json:"in_flight_requests"`
	// QueueWait is the admission-wait histogram (time from arrival to
	// acquiring a worker slot, admitted requests only).
	QueueWait telemetry.HistogramSnapshot `json:"queue_wait"`
	// Latency is one entry per observed (route, outcome) pair, sorted,
	// each with its full bucket layout and derived quantiles.
	Latency []LatencySeries `json:"latency"`
}

// LatencySeries is one (route, outcome) histogram with its derived
// quantile estimates (nanoseconds, linear interpolation — see
// telemetry.HistogramSnapshot.Quantile).
type LatencySeries struct {
	telemetry.SeriesSnapshot
	P50NS float64 `json:"p50_ns"`
	P95NS float64 `json:"p95_ns"`
	P99NS float64 `json:"p99_ns"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		s.writePrometheus(w)
		return
	}
	var m Metrics
	m.Counters = s.obs.Counters()
	if m.Counters == nil {
		m.Counters = map[string]int64{}
	}
	cs := s.CacheStats()
	m.Cache.Entries = cs.Entries
	m.Cache.Bytes = cs.Bytes
	m.Cache.Hits = cs.Hits
	m.Cache.Misses = cs.Misses
	m.Cache.Evictions = cs.Evictions
	m.Cache.Retries = cs.Retries
	m.Cache.HitRatio = hitRatio(cs.Hits, cs.Misses)
	hs := s.hot.Stats()
	m.Cache.Hot.Entries = hs.Entries
	m.Cache.Hot.Bytes = hs.Bytes
	m.Cache.Hot.Hits = hs.Hits
	m.Cache.Hot.Misses = hs.Misses
	m.Cache.Hot.Evictions = hs.Evictions
	ms := s.memo.Stats()
	m.UnitMemo.Entries = ms.Entries
	m.UnitMemo.Bytes = ms.Bytes
	m.UnitMemo.Hits = ms.Hits
	m.UnitMemo.Misses = ms.Misses
	m.UnitMemo.Evictions = ms.Evictions
	m.UnitMemo.HitRatio = hitRatio(ms.Hits, ms.Misses)
	m.Queue.Workers = s.cfg.Workers
	m.Queue.Depth = s.cfg.QueueDepth
	m.Queue.Inflight = s.inflight.Load()
	m.Queue.Queued = s.queued.Load()
	m.Queue.Shed = s.shed.Load()
	m.InFlightRequests = s.httpInflight.Load()
	m.QueueWait = s.queueWait.Snapshot()
	for _, ss := range s.tel.Snapshot() {
		m.Latency = append(m.Latency, LatencySeries{
			SeriesSnapshot: ss,
			P50NS:          ss.Quantile(0.50),
			P95NS:          ss.Quantile(0.95),
			P99NS:          ss.Quantile(0.99),
		})
	}
	writeJSON(w, http.StatusOK, m)
}

// hitRatio is hits/(hits+misses), 0 for an untouched cache.
func hitRatio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// writePrometheus renders the full metrics surface in text exposition
// format 0.0.4. Families appear in a fixed order; within a family,
// series are in sorted key order (the counter map is sorted here, the
// histogram registry snapshot is pre-sorted by (route, outcome)).
func (s *Server) writePrometheus(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	cs := s.CacheStats()

	telemetry.WriteHeader(w, "polaris_in_flight_requests", "Requests currently inside any handler.", "gauge")
	telemetry.WriteCounter(w, "polaris_in_flight_requests", s.httpInflight.Load())

	telemetry.WriteHeader(w, "polaris_cache_entries", "Compile cache entries resident, both tiers.", "gauge")
	telemetry.WriteCounter(w, "polaris_cache_entries", int64(cs.Entries))
	telemetry.WriteHeader(w, "polaris_cache_bytes", "Compile cache bytes resident, both tiers.", "gauge")
	telemetry.WriteCounter(w, "polaris_cache_bytes", cs.Bytes)
	telemetry.WriteHeader(w, "polaris_cache_hits_total", "Compile cache lookups served from a completed or in-flight entry.", "counter")
	telemetry.WriteCounter(w, "polaris_cache_hits_total", cs.Hits)
	telemetry.WriteHeader(w, "polaris_cache_misses_total", "Compile cache lookups that started a new compile.", "counter")
	telemetry.WriteCounter(w, "polaris_cache_misses_total", cs.Misses)
	telemetry.WriteHeader(w, "polaris_cache_evictions_total", "Compile cache LRU evictions.", "counter")
	telemetry.WriteCounter(w, "polaris_cache_evictions_total", cs.Evictions)
	telemetry.WriteHeader(w, "polaris_cache_retries_total", "Singleflight retries after a canceled leader.", "counter")
	telemetry.WriteCounter(w, "polaris_cache_retries_total", cs.Retries)
	telemetry.WriteHeader(w, "polaris_cache_hit_ratio", "hits / (hits + misses), 0 for an untouched cache.", "gauge")
	telemetry.WriteGauge(w, "polaris_cache_hit_ratio", hitRatio(cs.Hits, cs.Misses))

	hs := s.hot.Stats()
	telemetry.WriteHeader(w, "polaris_cache_hot_entries", "Hot-tier entries resident (keys a peer owns).", "gauge")
	telemetry.WriteCounter(w, "polaris_cache_hot_entries", int64(hs.Entries))
	telemetry.WriteHeader(w, "polaris_cache_hot_bytes", "Hot-tier bytes resident.", "gauge")
	telemetry.WriteCounter(w, "polaris_cache_hot_bytes", hs.Bytes)
	telemetry.WriteHeader(w, "polaris_cache_hot_hits_total", "Hot-tier lookups served from a completed or in-flight entry.", "counter")
	telemetry.WriteCounter(w, "polaris_cache_hot_hits_total", hs.Hits)
	telemetry.WriteHeader(w, "polaris_cache_hot_misses_total", "Hot-tier lookups that started a peer fill.", "counter")
	telemetry.WriteCounter(w, "polaris_cache_hot_misses_total", hs.Misses)
	telemetry.WriteHeader(w, "polaris_cache_hot_evictions_total", "Hot-tier LRU evictions.", "counter")
	telemetry.WriteCounter(w, "polaris_cache_hot_evictions_total", hs.Evictions)

	ms := s.memo.Stats()
	telemetry.WriteHeader(w, "polaris_unit_memo_entries", "Per-unit incremental memo entries resident.", "gauge")
	telemetry.WriteCounter(w, "polaris_unit_memo_entries", int64(ms.Entries))
	telemetry.WriteHeader(w, "polaris_unit_memo_bytes", "Per-unit incremental memo bytes resident.", "gauge")
	telemetry.WriteCounter(w, "polaris_unit_memo_bytes", ms.Bytes)
	telemetry.WriteHeader(w, "polaris_unit_memo_hits_total", "Unit-level memo lookups replayed from a memoized unit.", "counter")
	telemetry.WriteCounter(w, "polaris_unit_memo_hits_total", ms.Hits)
	telemetry.WriteHeader(w, "polaris_unit_memo_misses_total", "Unit-level memo lookups that recompiled the unit.", "counter")
	telemetry.WriteCounter(w, "polaris_unit_memo_misses_total", ms.Misses)
	telemetry.WriteHeader(w, "polaris_unit_memo_evictions_total", "Per-unit incremental memo LRU evictions.", "counter")
	telemetry.WriteCounter(w, "polaris_unit_memo_evictions_total", ms.Evictions)

	telemetry.WriteHeader(w, "polaris_queue_workers", "Configured compile worker slots.", "gauge")
	telemetry.WriteCounter(w, "polaris_queue_workers", int64(s.cfg.Workers))
	telemetry.WriteHeader(w, "polaris_queue_capacity", "Configured admission queue depth beyond the worker pool.", "gauge")
	telemetry.WriteCounter(w, "polaris_queue_capacity", int64(s.cfg.QueueDepth))
	telemetry.WriteHeader(w, "polaris_queue_inflight", "Requests holding a compile worker slot.", "gauge")
	telemetry.WriteCounter(w, "polaris_queue_inflight", s.inflight.Load())
	telemetry.WriteHeader(w, "polaris_queue_queued", "Admitted requests (waiting + running).", "gauge")
	telemetry.WriteCounter(w, "polaris_queue_queued", s.queued.Load())
	telemetry.WriteHeader(w, "polaris_requests_shed_total", "Requests rejected with 429.", "counter")
	telemetry.WriteCounter(w, "polaris_requests_shed_total", s.shed.Load())

	// Shared observer counters, one family each, in sorted key order.
	counters := s.obs.Counters()
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		metric := "polaris_" + telemetry.SanitizeMetricName(name)
		telemetry.WriteHeader(w, metric, "Shared observer counter "+name+".", "counter")
		telemetry.WriteCounter(w, metric, counters[name])
	}

	telemetry.WriteHistogram(w, "polaris_queue_wait_seconds",
		"Admission wait from arrival to worker-slot acquisition (admitted requests).",
		s.queueWait.Snapshot())
	telemetry.WriteHistograms(w, "polaris_request_duration_seconds",
		"Request latency by route and outcome.",
		s.tel.Snapshot())
}
