package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"polaris/internal/core"
	"polaris/internal/store"
	"polaris/internal/telemetry"
)

// syncBuffer is an io.Writer safe for concurrent slog handlers.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) lines() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, l := range strings.Split(s.b.String(), "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out
}

// TestRetryAfterDerivedFromDrainRate unit-tests the 429 Retry-After
// computation: empty-history fallback, steady drain, slow-drain clamp,
// and ring wrap-around.
func TestRetryAfterDerivedFromDrainRate(t *testing.T) {
	base := time.Unix(1_000_000, 0)

	// Cold server: no completions yet → fallback 1.
	s := New(Config{Workers: 2, QueueDepth: 8})
	if got := s.retryAfterSeconds("compile", base); got != 1 {
		t.Errorf("empty history: Retry-After = %d, want 1", got)
	}
	// A single completion is not a rate → still the fallback.
	s.noteCompletion("compile", base)
	if got := s.retryAfterSeconds("compile", base.Add(time.Second)); got != 1 {
		t.Errorf("one sample: Retry-After = %d, want 1", got)
	}

	// Steady drain at 10 completions/second with 25 requests queued:
	// 25 / 10 = 2.5s → ceil → 3.
	s = New(Config{Workers: 2, QueueDepth: 32})
	for i := 0; i < 21; i++ {
		s.noteCompletion("compile", base.Add(time.Duration(i)*100*time.Millisecond))
	}
	s.queued.Store(25)
	if got := s.retryAfterSeconds("compile", base.Add(2100*time.Millisecond)); got != 3 {
		t.Errorf("steady drain: Retry-After = %d, want 3", got)
	}

	// Glacial drain clamps at 30.
	s = New(Config{Workers: 1, QueueDepth: 8})
	s.noteCompletion("compile", base)
	s.noteCompletion("compile", base.Add(20*time.Second))
	s.queued.Store(10)
	if got := s.retryAfterSeconds("compile", base.Add(40*time.Second)); got != 30 {
		t.Errorf("slow drain: Retry-After = %d, want clamp 30", got)
	}

	// More completions than the window: the oldest live sample is the
	// one the next write would overwrite, not slot 0.
	s = New(Config{Workers: 2, QueueDepth: 8})
	for i := 0; i < drainWindow+10; i++ {
		s.noteCompletion("compile", base.Add(time.Duration(i)*time.Second))
	}
	s.queued.Store(5)
	// oldest = base+10s, now = base+74s → span 64s, rate 1/s → 5s.
	if got := s.retryAfterSeconds("compile", base.Add(74*time.Second)); got != 5 {
		t.Errorf("wrapped ring: Retry-After = %d, want 5", got)
	}

	// The shed response itself carries a numeric in-range header.
	rec := httptest.NewRecorder()
	s.shedResponse(rec, "compile")
	secs, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || secs < 1 || secs > 30 {
		t.Errorf("shed Retry-After = %q, want integer in [1,30]", rec.Header().Get("Retry-After"))
	}
}

// TestRequestIDEchoAndAccessLog drives two requests through the
// middleware: a client-supplied X-Request-Id must be adopted and echoed
// (header, body, access log); an invalid one must be replaced by a
// generated ID; and the cache-hit line must name the cold leader.
func TestRequestIDEchoAndAccessLog(t *testing.T) {
	var buf syncBuffer
	s := New(Config{AccessLog: slog.New(slog.NewJSONHandler(&buf, nil))})

	body, _ := json.Marshal(CompileRequest{Source: saxpySrc, Label: "saxpy"})
	req := httptest.NewRequest("POST", "/v1/compile", bytes.NewReader(body))
	req.Header.Set("X-Request-Id", "req-alpha")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Request-Id"); got != "req-alpha" {
		t.Errorf("echoed X-Request-Id = %q, want req-alpha", got)
	}
	cold := decodeBody[CompileResponse](t, w)
	if cold.RequestID != "req-alpha" || cold.Outcome != telemetry.OutcomeCold || cold.LeaderID != "" {
		t.Errorf("cold response id/outcome/leader = %q/%q/%q", cold.RequestID, cold.Outcome, cold.LeaderID)
	}

	// Invalid supplied ID (spaces) → server-generated replacement.
	req = httptest.NewRequest("POST", "/v1/compile", bytes.NewReader(body))
	req.Header.Set("X-Request-Id", "not a valid id!!")
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	hit := decodeBody[CompileResponse](t, w)
	if hit.RequestID == "" || hit.RequestID == "not a valid id!!" {
		t.Errorf("invalid supplied ID not replaced: %q", hit.RequestID)
	}
	if w.Header().Get("X-Request-Id") != hit.RequestID {
		t.Errorf("header %q != body request_id %q", w.Header().Get("X-Request-Id"), hit.RequestID)
	}
	if hit.Outcome != telemetry.OutcomeCacheHit || hit.LeaderID != "req-alpha" {
		t.Errorf("hit outcome/leader = %q/%q, want cache_hit/req-alpha", hit.Outcome, hit.LeaderID)
	}

	// Access log: one structured line per request, joinable by ID.
	byID := map[string]map[string]any{}
	for _, line := range buf.lines() {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access log line %q is not JSON: %v", line, err)
		}
		if id, ok := rec["id"].(string); ok {
			byID[id] = rec
		}
	}
	lead := byID["req-alpha"]
	if lead == nil {
		t.Fatalf("no access-log line for req-alpha: %v", buf.lines())
	}
	if lead["route"] != "compile" || lead["outcome"] != string(telemetry.OutcomeCold) || lead["cached"] != false {
		t.Errorf("leader log line = %v", lead)
	}
	if lat, ok := lead["latency_ns"].(float64); !ok || lat <= 0 {
		t.Errorf("leader log latency_ns = %v", lead["latency_ns"])
	}
	if _, present := lead["leader_id"]; present {
		t.Errorf("cold line carries leader_id: %v", lead)
	}
	hitLine := byID[hit.RequestID]
	if hitLine == nil {
		t.Fatalf("no access-log line for %q", hit.RequestID)
	}
	if hitLine["outcome"] != string(telemetry.OutcomeCacheHit) || hitLine["leader_id"] != "req-alpha" || hitLine["cached"] != true {
		t.Errorf("hit log line = %v", hitLine)
	}
}

// TestCoalescedWaitersNameLeader pins 8-way coalescing end to end over
// HTTP, deterministically: a blocked leader (direct cache call with
// request ID "leader-req") holds the entry in flight; 8 HTTP requests
// arrive, are observed parked via the cache's hit counter, and only
// then is the leader released. Every waiter must report coalesced and
// name the leader.
func TestCoalescedWaitersNameLeader(t *testing.T) {
	s := New(Config{Workers: 16, QueueDepth: 16})
	opt := core.PolarisOptions()

	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan store.Outcome, 1)
	go func() {
		ctx := telemetry.WithRequestID(context.Background(), "leader-req")
		key := core.KeyOf(saxpySrc, opt)
		_, out, err := s.compiled(ctx, s.cache, key, opt,
			func(ctx context.Context, o core.Options) (*cacheEntry, error) {
				close(started)
				<-release
				return compileSource(key, saxpySrc, nil)(ctx, o)
			})
		if err != nil {
			t.Errorf("leader compile: %v", err)
		}
		leaderDone <- out
	}()
	<-started

	const waiters = 8
	recs := make([]*httptest.ResponseRecorder, waiters)
	body, _ := json.Marshal(CompileRequest{Source: saxpySrc, Label: "w"})
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest("POST", "/v1/compile", bytes.NewReader(body))
			req.Header.Set("X-Request-Id", fmt.Sprintf("waiter-%d", i))
			recs[i] = httptest.NewRecorder()
			s.Handler().ServeHTTP(recs[i], req)
		}(i)
	}
	// The Hits counter increments at lookup, before the waiter parks:
	// once it reads 8 every waiter has found the in-flight entry.
	for s.cache.Stats().Hits < waiters {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if out := <-leaderDone; out.Kind != telemetry.OutcomeCold {
		t.Fatalf("leader outcome = %+v, want cold", out)
	}
	for i := 0; i < waiters; i++ {
		if recs[i].Code != http.StatusOK {
			t.Fatalf("waiter %d: status %d: %s", i, recs[i].Code, recs[i].Body.String())
		}
		resp := decodeBody[CompileResponse](t, recs[i])
		if resp.RequestID != fmt.Sprintf("waiter-%d", i) {
			t.Errorf("waiter %d request_id = %q", i, resp.RequestID)
		}
		if resp.Outcome != telemetry.OutcomeCoalesced || !resp.Cached {
			t.Errorf("waiter %d outcome/cached = %q/%v, want coalesced/true", i, resp.Outcome, resp.Cached)
		}
		if resp.LeaderID != "leader-req" {
			t.Errorf("waiter %d leader_id = %q, want leader-req", i, resp.LeaderID)
		}
	}

	// The histogram recorded exactly 8 coalesced compile samples.
	for _, ss := range s.tel.Snapshot() {
		if ss.Route == "compile" && ss.Outcome == telemetry.OutcomeCoalesced && ss.Count != waiters {
			t.Errorf("coalesced histogram count = %d, want %d", ss.Count, waiters)
		}
	}
}

// promBucketRe matches one exposition bucket line; promSampleRe matches
// a _count sample with optional labels.
var (
	promBucketRe = regexp.MustCompile(`^([a-zA-Z0-9_:]+)_bucket\{(?:(.*),)?le="([^"]+)"\} (\d+)$`)
	promCountRe  = regexp.MustCompile(`^([a-zA-Z0-9_:]+)_count(?:\{(.*)\})? (\d+)$`)
)

// checkPromHistograms parses an exposition body and asserts, for every
// histogram series: bucket bounds strictly ascending, cumulative counts
// non-decreasing, and the +Inf bucket equal to the series _count.
// Returns _count per "name{labels}" series.
func checkPromHistograms(t *testing.T, body string) map[string]int64 {
	t.Helper()
	type state struct {
		lastLE  float64
		lastCum int64
		infCum  int64
		sawInf  bool
	}
	series := map[string]*state{}
	counts := map[string]int64{}
	for _, line := range strings.Split(body, "\n") {
		if m := promBucketRe.FindStringSubmatch(line); m != nil {
			key := m[1] + "{" + m[2] + "}"
			st := series[key]
			if st == nil {
				st = &state{lastLE: math.Inf(-1), lastCum: -1}
				series[key] = st
			}
			cum, _ := strconv.ParseInt(m[4], 10, 64)
			le := math.Inf(1)
			if m[3] != "+Inf" {
				var err error
				le, err = strconv.ParseFloat(m[3], 64)
				if err != nil {
					t.Fatalf("bad le %q in %q", m[3], line)
				}
			}
			if le <= st.lastLE {
				t.Errorf("series %s: bucket bounds not ascending at %q", key, line)
			}
			if cum < st.lastCum {
				t.Errorf("series %s: cumulative count decreased at %q", key, line)
			}
			st.lastLE, st.lastCum = le, cum
			if math.IsInf(le, 1) {
				st.infCum, st.sawInf = cum, true
			}
		} else if m := promCountRe.FindStringSubmatch(line); m != nil {
			n, _ := strconv.ParseInt(m[3], 10, 64)
			counts[m[1]+"{"+m[2]+"}"] = n
		}
	}
	if len(series) == 0 {
		t.Fatal("no histogram bucket lines in exposition")
	}
	for key, st := range series {
		if !st.sawInf {
			t.Errorf("series %s has no +Inf bucket", key)
			continue
		}
		if counts[key] != st.infCum {
			t.Errorf("series %s: +Inf cum %d != _count %d", key, st.infCum, counts[key])
		}
	}
	return counts
}

// TestPrometheusExposition checks the text format against the JSON
// snapshot: preambles present, buckets monotone and consistent with
// _count, per-series counts equal across the two formats, observer
// counter families in sorted order, the in-flight gauge visible, and
// every compile-cache family, hot tier included, equal to its JSON
// field.
func TestPrometheusExposition(t *testing.T) {
	s := New(Config{})
	postJSON(t, s.Handler(), "/v1/compile", CompileRequest{Source: saxpySrc})
	postJSON(t, s.Handler(), "/v1/compile", CompileRequest{Source: saxpySrc})
	postJSON(t, s.Handler(), "/v1/explain", ExplainRequest{Source: saxpySrc})

	req := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	m := decodeBody[Metrics](t, w)

	req = httptest.NewRequest("GET", "/metrics?format=prometheus", nil)
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("prometheus scrape: status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		"# HELP polaris_request_duration_seconds ",
		"# TYPE polaris_request_duration_seconds histogram",
		"# TYPE polaris_queue_wait_seconds histogram",
		"# TYPE polaris_cache_hit_ratio gauge",
		"polaris_in_flight_requests 1", // this scrape is the only in-flight request
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	counts := checkPromHistograms(t, body)
	// Per-series counts must agree with the JSON snapshot taken just
	// before the scrape (compile/explain series are quiesced; the
	// metrics route itself keeps counting scrapes, so skip it).
	for _, ls := range m.Latency {
		if ls.Route == "metrics" {
			continue
		}
		key := fmt.Sprintf("polaris_request_duration_seconds{route=%q,outcome=%q}", ls.Route, ls.Outcome)
		if counts[key] != ls.Count {
			t.Errorf("series %s: prometheus count %d != JSON count %d", key, counts[key], ls.Count)
		}
	}
	if m.QueueWait.Count < 3 {
		t.Errorf("queue-wait histogram count = %d, want ≥ 3 admitted requests", m.QueueWait.Count)
	}
	if counts["polaris_queue_wait_seconds{}"] < 3 {
		t.Errorf("prometheus queue-wait count = %d", counts["polaris_queue_wait_seconds{}"])
	}
	if m.Cache.HitRatio <= 0 || m.Cache.HitRatio >= 1 {
		t.Errorf("cache hit ratio = %v, want in (0,1)", m.Cache.HitRatio)
	}

	// Observer-counter families are emitted in sorted key order.
	var observerFamilies []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# HELP ") && strings.Contains(line, "Shared observer counter") {
			observerFamilies = append(observerFamilies, strings.Fields(line)[2])
		}
	}
	if len(observerFamilies) == 0 {
		t.Error("no observer counter families in exposition")
	}
	if !sort.StringsAreSorted(observerFamilies) {
		t.Errorf("observer counter families not sorted: %v", observerFamilies)
	}
	checkPromCache(t, s)

	// The hot tier's families, on a fabric requester whose one-entry hot
	// tier has missed, hit and evicted: two peer-owned keys asked twice
	// each, and one key it owns, asked once, in its main cache.
	owner, requester, _, ring := handlerPair(t, Config{CacheEntries: 8})
	for _, src := range []string{sourceOwnedBy(t, ring, "a", saxpySrc), sourceOwnedBy(t, ring, "a", tamperLine(saxpySrc))} {
		compileAs(t, owner.Handler(), "", src, "prog")
		compileAs(t, requester.Handler(), "", src, "prog")
		compileAs(t, requester.Handler(), "", src, "prog")
	}
	compileAs(t, requester.Handler(), "", sourceOwnedBy(t, ring, "b", saxpySrc), "prog")
	m = checkPromCache(t, requester)
	if c, h := m.Cache, m.Cache.Hot; h.Entries != 1 || h.Hits != 2 || h.Misses != 2 || h.Evictions != 1 ||
		c.Entries != 2 || c.Hits != 2 || c.Misses != 3 || c.Evictions != 1 {
		t.Errorf("the requester's cache metrics %+v: want the hot tier at 1 entry, 2 hits, 2 misses, 1 eviction, and totals of 2, 2, 3, 1", c)
	}
}

// checkPromCache scrapes s in both formats and holds every compile-cache
// family, the totals over both tiers and the hot tier's own, to its JSON
// field.
func checkPromCache(t *testing.T, s *Server) Metrics {
	t.Helper()
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	m := decodeBody[Metrics](t, w)
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	exposed := map[string]string{}
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			exposed[f[0]] = f[1]
		}
	}
	c, h := m.Cache, m.Cache.Hot
	for family, want := range map[string]int64{
		"polaris_cache_entries":             int64(c.Entries),
		"polaris_cache_bytes":               c.Bytes,
		"polaris_cache_hits_total":          c.Hits,
		"polaris_cache_misses_total":        c.Misses,
		"polaris_cache_evictions_total":     c.Evictions,
		"polaris_cache_retries_total":       c.Retries,
		"polaris_cache_hot_entries":         int64(h.Entries),
		"polaris_cache_hot_bytes":           h.Bytes,
		"polaris_cache_hot_hits_total":      h.Hits,
		"polaris_cache_hot_misses_total":    h.Misses,
		"polaris_cache_hot_evictions_total": h.Evictions,
	} {
		if got := exposed[family]; got != strconv.FormatInt(want, 10) {
			t.Errorf("%s is %q in the exposition and %d in JSON", family, got, want)
		}
	}
	return m
}

// TestMetricsHammerConsistency is the -race load gate: 64 mixed
// compile/explain requests against a small worker pool run while
// /metrics is scraped continuously in both formats. Afterwards the
// per-(route, outcome) histogram counts must exactly equal the
// per-outcome response tallies, every snapshot must satisfy
// count == Σ buckets, and every non-cold response must name a leader
// that itself answered cold.
func TestMetricsHammerConsistency(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 64, CacheEntries: 8})
	h := s.Handler()

	sources := []string{
		saxpySrc,
		"C variant one\n" + saxpySrc,
		"C variant two\n" + saxpySrc,
		"C variant three\n" + saxpySrc,
	}

	// Continuous scrapers, both formats, until the load completes.
	done := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for _, format := range []string{"/metrics", "/metrics?format=prometheus"} {
		scrapeWG.Add(1)
		go func(path string) {
			defer scrapeWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				req := httptest.NewRequest("GET", path, nil)
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					t.Errorf("scrape %s: status %d", path, w.Code)
					return
				}
			}
		}(format)
	}

	const total = 64
	type obs struct {
		route, outcome, id, leader string
	}
	results := make([]obs, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := sources[i%len(sources)]
			id := fmt.Sprintf("hammer-%d", i)
			var path string
			var payload any
			if i%2 == 0 {
				path, payload = "/v1/compile", CompileRequest{Source: src}
			} else {
				path, payload = "/v1/explain", ExplainRequest{Source: src}
			}
			b, _ := json.Marshal(payload)
			req := httptest.NewRequest("POST", path, bytes.NewReader(b))
			req.Header.Set("X-Request-Id", id)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Errorf("request %d (%s): status %d: %s", i, path, w.Code, w.Body.String())
				return
			}
			if w.Header().Get("X-Request-Id") != id {
				t.Errorf("request %d: header id %q", i, w.Header().Get("X-Request-Id"))
			}
			if i%2 == 0 {
				r := decodeBody[CompileResponse](t, w)
				results[i] = obs{"compile", r.Outcome, r.RequestID, r.LeaderID}
			} else {
				r := decodeBody[ExplainResponse](t, w)
				results[i] = obs{"explain", r.Outcome, r.RequestID, r.LeaderID}
			}
		}(i)
	}
	wg.Wait()
	close(done)
	scrapeWG.Wait()

	// Tally responses and cross-check attribution: every request got an
	// ID, and every cache_hit/coalesced response names a leader whose
	// own response was cold (compile and explain share the cache, so
	// the leader may live on either route).
	coldIDs := map[string]bool{}
	for _, r := range results {
		if r.outcome == telemetry.OutcomeCold {
			coldIDs[r.id] = true
		}
	}
	tally := map[string]int64{}
	for i, r := range results {
		if r.id == "" || r.outcome == "" {
			t.Fatalf("request %d: missing id/outcome: %+v", i, r)
		}
		tally[r.route+"|"+r.outcome]++
		switch r.outcome {
		case telemetry.OutcomeCold:
			if r.leader != "" {
				t.Errorf("request %d: cold response names leader %q", i, r.leader)
			}
		case telemetry.OutcomeCacheHit, telemetry.OutcomeCoalesced:
			if !coldIDs[r.leader] {
				t.Errorf("request %d: leader %q has no cold response", i, r.leader)
			}
		default:
			t.Errorf("request %d: unexpected outcome %q", i, r.outcome)
		}
	}

	// The histograms must agree exactly with the tallies.
	var served int64
	for _, ss := range s.tel.Snapshot() {
		var sum int64
		for _, n := range ss.Buckets {
			sum += n
		}
		if sum != ss.Count {
			t.Errorf("series %s/%s: Σ buckets %d != count %d", ss.Route, ss.Outcome, sum, ss.Count)
		}
		if ss.Route != "compile" && ss.Route != "explain" {
			continue
		}
		served += ss.Count
		if want := tally[ss.Route+"|"+ss.Outcome]; ss.Count != want {
			t.Errorf("series %s/%s: histogram count %d != %d responses", ss.Route, ss.Outcome, ss.Count, want)
		}
	}
	if served != total {
		t.Errorf("compile+explain histogram counts sum to %d, want %d", served, total)
	}

	// The final exposition still parses with monotone buckets.
	req := httptest.NewRequest("GET", "/metrics?format=prometheus", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	checkPromHistograms(t, w.Body.String())
}
