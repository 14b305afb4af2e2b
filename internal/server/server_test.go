package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"polaris/internal/core"
	"polaris/internal/passes"
	"polaris/internal/suite"
)

const saxpySrc = `
      PROGRAM SAXPY
      REAL RESULT
      COMMON /OUT/ RESULT
      INTEGER N
      PARAMETER (N=400)
      REAL X(N), Y(N)
      INTEGER I
      DO I = 1, N
        X(I) = 0.001 * I
        Y(I) = 2.0 - 0.0005 * I
      END DO
      DO I = 1, N
        Y(I) = Y(I) + 2.5 * X(I)
      END DO
      RESULT = Y(N)
      END
`

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeBody[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode %q: %v", w.Body.String(), err)
	}
	return v
}

func TestCompileEndpoint(t *testing.T) {
	s := New(Config{})
	w := postJSON(t, s.Handler(), "/v1/compile", CompileRequest{Source: saxpySrc, Label: "saxpy"})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeBody[CompileResponse](t, w)
	if resp.Label != "saxpy" || resp.Cached {
		t.Errorf("label/cached = %q/%v, want saxpy/false", resp.Label, resp.Cached)
	}
	if resp.ParallelLoops == 0 {
		t.Fatalf("no DOALL verdicts: %+v", resp.Verdicts)
	}
	doall := false
	for _, v := range resp.Verdicts {
		if v.Parallel && v.ID != "" {
			doall = true
		}
	}
	if !doall {
		t.Errorf("no parallel verdict with a loop ID: %+v", resp.Verdicts)
	}
	if len(resp.Decisions) == 0 {
		t.Fatal("response carries no decision provenance")
	}
	for _, d := range resp.Decisions {
		if d.Label != "saxpy" {
			t.Fatalf("decision label %q leaked the internal request label", d.Label)
		}
	}
	if len(resp.Report) == 0 {
		t.Error("response carries no pass report")
	}

	// A second identical request is a cache hit and still carries the
	// full decision provenance, relabeled for this request.
	w = postJSON(t, s.Handler(), "/v1/compile", CompileRequest{Source: saxpySrc, Label: "again"})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	hit := decodeBody[CompileResponse](t, w)
	if !hit.Cached {
		t.Error("second identical request was not served from cache")
	}
	if len(hit.Decisions) != len(resp.Decisions) {
		t.Errorf("cache hit has %d decisions, cold compile had %d", len(hit.Decisions), len(resp.Decisions))
	}
	for _, d := range hit.Decisions {
		if d.Label != "again" {
			t.Fatalf("hit decision label %q, want %q", d.Label, "again")
		}
	}
}

func TestCompileTechniqueSelectionAndBaseline(t *testing.T) {
	s := New(Config{})
	// An explicit subset keys a distinct cache entry and is accepted.
	w := postJSON(t, s.Handler(), "/v1/compile", CompileRequest{
		Source: saxpySrc, Techniques: []string{"induction", "reductions", "range-test"},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("subset compile: status %d: %s", w.Code, w.Body.String())
	}
	// Unknown technique names are the client's fault.
	w = postJSON(t, s.Handler(), "/v1/compile", CompileRequest{
		Source: saxpySrc, Techniques: []string{"quantum-vectorization"},
	})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("unknown technique: status %d, want 400", w.Code)
	}
	eb := decodeBody[errorBody](t, w)
	if !strings.Contains(eb.Error, "quantum-vectorization") {
		t.Errorf("error %q does not name the bad technique", eb.Error)
	}
	// Baseline compiles through the PFA path.
	w = postJSON(t, s.Handler(), "/v1/compile", CompileRequest{Source: saxpySrc, Baseline: true})
	if w.Code != http.StatusOK {
		t.Fatalf("baseline: status %d: %s", w.Code, w.Body.String())
	}
	base := decodeBody[CompileResponse](t, w)
	if base.CodegenFactor <= 0 {
		t.Errorf("baseline response has no codegen factor: %+v", base)
	}
}

func TestCompileBadRequests(t *testing.T) {
	s := New(Config{MaxSourceBytes: 2048})
	h := s.Handler()

	w := postJSON(t, h, "/v1/compile", CompileRequest{})
	if w.Code != http.StatusBadRequest {
		t.Errorf("missing source: status %d, want 400", w.Code)
	}
	w = postJSON(t, h, "/v1/compile", CompileRequest{Source: "PROGRAM\nGARBAGE("})
	if w.Code != http.StatusBadRequest {
		t.Errorf("parse error: status %d, want 400: %s", w.Code, w.Body.String())
	}
	// Malformed parse errors must not be cached: same bad source again
	// still reports 400 (not a stale entry).
	w = postJSON(t, h, "/v1/compile", CompileRequest{Source: "PROGRAM\nGARBAGE("})
	if w.Code != http.StatusBadRequest {
		t.Errorf("repeat parse error: status %d, want 400", w.Code)
	}
	// Over-long bodies are shed with 413.
	big := CompileRequest{Source: strings.Repeat("C filler\n", 1000)}
	w = postJSON(t, h, "/v1/compile", big)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", w.Code)
	}
	// Wrong method.
	req := httptest.NewRequest("GET", "/v1/compile", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/compile: status %d, want 405", rec.Code)
	}
}

func TestAdmissionShedsWith429(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	// Occupy the only worker slot and the only queue slot.
	s.slots <- struct{}{}
	s.queued.Add(2)
	defer func() { <-s.slots; s.queued.Add(-2) }()

	w := postJSON(t, s.Handler(), "/v1/compile", CompileRequest{Source: saxpySrc})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if s.shed.Load() == 0 {
		t.Error("shed gauge not incremented")
	}
}

func TestExplainEndpoint(t *testing.T) {
	s := New(Config{})
	w := postJSON(t, s.Handler(), "/v1/explain", ExplainRequest{Source: saxpySrc, Label: "saxpy"})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeBody[ExplainResponse](t, w)
	if len(resp.Lines) == 0 {
		t.Fatal("no explanation lines")
	}
	found := false
	for _, l := range resp.Lines {
		if strings.Contains(l, "DOALL") {
			found = true
		}
	}
	if !found {
		t.Errorf("no DOALL line in %q", resp.Lines)
	}
	// Single-loop query with trail.
	w = postJSON(t, s.Handler(), "/v1/explain", ExplainRequest{Source: saxpySrc, Loop: "I", Verbose: true})
	if w.Code != http.StatusOK {
		t.Fatalf("loop query: status %d: %s", w.Code, w.Body.String())
	}
	one := decodeBody[ExplainResponse](t, w)
	if len(one.Lines) != 1 || len(one.Trail) == 0 {
		t.Errorf("loop query: %d lines, %d trail records", len(one.Lines), len(one.Trail))
	}
	// Unknown loop is 404.
	w = postJSON(t, s.Handler(), "/v1/explain", ExplainRequest{Source: saxpySrc, Loop: "L999"})
	if w.Code != http.StatusNotFound {
		t.Errorf("unknown loop: status %d, want 404", w.Code)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := New(Config{})
	req := httptest.NewRequest("GET", "/healthz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("healthz: %d %q", w.Code, w.Body.String())
	}

	postJSON(t, s.Handler(), "/v1/compile", CompileRequest{Source: saxpySrc})
	postJSON(t, s.Handler(), "/v1/compile", CompileRequest{Source: saxpySrc})

	req = httptest.NewRequest("GET", "/metrics", nil)
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", w.Code)
	}
	m := decodeBody[Metrics](t, w)
	if m.Counters["server_requests_total"] != 2 {
		t.Errorf("server_requests_total = %d, want 2", m.Counters["server_requests_total"])
	}
	if m.Cache.Misses != 1 || m.Cache.Hits != 1 {
		t.Errorf("cache gauges misses=%d hits=%d, want 1/1", m.Cache.Misses, m.Cache.Hits)
	}
	if m.Cache.Entries != 1 || m.Cache.Bytes <= 0 {
		t.Errorf("cache entries=%d bytes=%d", m.Cache.Entries, m.Cache.Bytes)
	}
	if m.Queue.Workers <= 0 {
		t.Errorf("queue workers = %d", m.Queue.Workers)
	}

	// Draining flips healthz to 503.
	s.draining.Store(true)
	req = httptest.NewRequest("GET", "/healthz", nil)
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: status %d, want 503", w.Code)
	}
}

// TestPassPanicIsIsolated drives a panicking pass through the same
// cache + pass-manager path the handler uses and checks the request
// maps to a 500 naming the pass while the server (process) survives.
func TestPassPanicIsIsolated(t *testing.T) {
	// End-to-end through the pass manager: a panicking pass becomes a
	// typed *core.PipelineError.
	m := passes.NewManager("req")
	m.Add(passes.Func("dependence-analysis", func(c *passes.Context) error { panic("nil deref") }))
	_, err := m.Run(context.Background(), suite.Program{Name: "x", Source: saxpySrc}.Parse())
	var pe *core.PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("pass panic produced %T, want *core.PipelineError", err)
	}
	// The handler's error mapping turns it into a 500 naming the pass.
	w := httptest.NewRecorder()
	writeCompileError(w, err)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	eb := decodeBody[errorBody](t, w)
	if eb.Pass != "dependence-analysis" {
		t.Errorf("error names pass %q, want dependence-analysis", eb.Pass)
	}
	// Deadline and cancellation map to 504/499.
	w = httptest.NewRecorder()
	writeCompileError(w, context.DeadlineExceeded)
	if w.Code != http.StatusGatewayTimeout {
		t.Errorf("deadline: status %d, want 504", w.Code)
	}
	w = httptest.NewRecorder()
	writeCompileError(w, context.Canceled)
	if w.Code != 499 {
		t.Errorf("canceled: status %d, want 499", w.Code)
	}
}

// TestDeadlineClamps: timeout_ms resolves to the default when absent or
// negative and is clamped to MaxTimeout above it, however large: a value
// whose duration overflows int64 nanoseconds must not wrap to an
// immediate timeout.
func TestDeadlineClamps(t *testing.T) {
	s := New(Config{})
	capped := s.cfg.MaxTimeout
	for _, tc := range []struct {
		ms   int64
		want time.Duration
	}{
		{0, s.cfg.DefaultTimeout},
		{-1, s.cfg.DefaultTimeout},
		{1, time.Millisecond},
		{capped.Milliseconds(), capped},
		{capped.Milliseconds() + 1, capped},
		{1 << 62, capped},
		{math.MaxInt64, capped},
	} {
		if got := s.deadline(tc.ms); got != tc.want {
			t.Errorf("timeout_ms %d: deadline %v, want %v", tc.ms, got, tc.want)
		}
	}
}

// TestRequestDeadlinePropagates: a microscopic timeout must abort the
// compile through passes.Context and surface as 504.
func TestRequestDeadlinePropagates(t *testing.T) {
	s := New(Config{})
	// The suite's largest programs take well over a microsecond.
	p, _ := suite.ByName("trfd")
	w := postJSON(t, s.Handler(), "/v1/compile", CompileRequest{Source: p.Source, TimeoutMS: 0})
	if w.Code != http.StatusOK {
		t.Fatalf("sanity compile failed: %d %s", w.Code, w.Body.String())
	}
	// Distinct source (comment) so the cache cannot serve the hit.
	src := "C deadline probe\n" + p.Source
	start := time.Now()
	w = postJSON(t, s.Handler(), "/v1/compile", CompileRequest{Source: src, TimeoutMS: 1})
	if w.Code != http.StatusGatewayTimeout && w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	// Regardless of which side of the race we hit, the request must not
	// have run to the default 10s deadline.
	if time.Since(start) > 5*time.Second {
		t.Errorf("1ms deadline took %v", time.Since(start))
	}
}
