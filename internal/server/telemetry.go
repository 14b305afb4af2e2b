package server

import (
	"context"
	"io"
	"log/slog"
	"math"
	"net/http"
	"time"

	"polaris/internal/telemetry"
)

// reqInfo is the per-request telemetry slate: the middleware creates
// it, the handler fills in the compile outcome, and the middleware
// reads it back after the handler returns to record the histogram
// sample and the access-log line. Handler and middleware run on the
// same goroutine, so no locking is needed.
type reqInfo struct {
	id       string
	outcome  string // one of the telemetry.Outcome* values; "" = derive from status
	leaderID string
	cached   bool
}

type reqInfoKey struct{}

// requestInfo returns the request's telemetry slate (nil outside the
// instrument middleware, e.g. in direct handler unit tests).
func requestInfo(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// setOutcome records the handler-determined outcome for the middleware
// to pick up. Safe to call when no middleware is installed.
func setOutcome(ctx context.Context, outcome, leaderID string, cached bool) {
	if ri := requestInfo(ctx); ri != nil {
		ri.outcome = outcome
		ri.leaderID = leaderID
		ri.cached = cached
	}
}

// statusWriter captures the response status code for telemetry.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// WriteString lets io.WriteString hand a string body (a fill's entry)
// to the connection without copying it to bytes first.
func (w *statusWriter) WriteString(s string) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return io.WriteString(w.ResponseWriter, s)
}

// Unwrap supports http.ResponseController pass-through.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// outcomeFromStatus maps an HTTP status onto the fixed outcome
// taxonomy for requests whose handler did not set one (every error
// path, plus plain GET endpoints).
func outcomeFromStatus(code int) string {
	switch {
	case code == http.StatusTooManyRequests:
		return telemetry.OutcomeShed
	case code == http.StatusGatewayTimeout:
		return telemetry.OutcomeTimeout
	case code == 499:
		return telemetry.OutcomeCanceled
	case code >= 400:
		return telemetry.OutcomeError
	default:
		return telemetry.OutcomeOK
	}
}

// instrument is the telemetry middleware: it adopts or assigns the
// request ID (X-Request-Id, echoed on the response), threads it
// through the context into the singleflight cache, captures the
// status, records one latency sample under (route, outcome), and
// writes one structured access-log line per request.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.httpInflight.Add(1)
		defer s.httpInflight.Add(-1)

		id := r.Header.Get("X-Request-Id")
		if !telemetry.ValidRequestID(id) {
			id = telemetry.NewRequestID()
		}
		ri := &reqInfo{id: id}
		ctx := telemetry.WithRequestID(r.Context(), id)
		ctx = context.WithValue(ctx, reqInfoKey{}, ri)
		w.Header().Set("X-Request-Id", id)

		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(ctx))

		elapsed := time.Since(start)
		outcome := ri.outcome
		if outcome == "" {
			outcome = outcomeFromStatus(sw.status())
		}
		s.tel.Observe(route, outcome, elapsed)

		attrs := make([]slog.Attr, 0, 8)
		attrs = append(attrs,
			slog.String("id", id),
			slog.String("route", route),
			slog.Int("status", sw.status()),
			slog.String("outcome", outcome),
			slog.Int64("latency_ns", elapsed.Nanoseconds()),
			slog.Bool("cached", ri.cached),
		)
		if ri.leaderID != "" {
			attrs = append(attrs, slog.String("leader_id", ri.leaderID))
		}
		if r.RemoteAddr != "" {
			attrs = append(attrs, slog.String("client", r.RemoteAddr))
		}
		s.accessLog.LogAttrs(context.Background(), slog.LevelInfo, "request", attrs...)
	}
}

// drainWindow bounds each per-route completion-history ring behind
// Retry-After.
const drainWindow = 64

// drainRing is one route's completion history. Rings are per route
// because routes drain at wildly different rates: a burst of cheap
// /v1/explain completions must not deflate the Retry-After hint handed
// to a shed compile request (the hint would promise capacity the
// compile queue does not have).
type drainRing struct {
	times [drainWindow]time.Time
	idx   int
}

// noteCompletion records one admission-slot release (a request
// finished with a worker) into the route's drain-rate history.
func (s *Server) noteCompletion(route string, at time.Time) {
	s.drainMu.Lock()
	ring, ok := s.drains[route]
	if !ok {
		ring = &drainRing{}
		s.drains[route] = ring
	}
	ring.times[ring.idx%drainWindow] = at
	ring.idx++
	s.drainMu.Unlock()
}

// retryAfterSeconds derives the 429 Retry-After hint from the route's
// observed admission-queue drain rate: with n recent completions over
// a span ending now, the queue of depth d drains in roughly d/(n/span)
// seconds. Clamped to [1, 30]; with no history for the route (a cold
// server shed before completing anything there) it falls back to 1.
func (s *Server) retryAfterSeconds(route string, now time.Time) int {
	s.drainMu.Lock()
	ring := s.drains[route]
	var n int
	var oldest time.Time
	if ring != nil {
		n = ring.idx
		if n > drainWindow {
			n = drainWindow
		}
		if n > 0 {
			if ring.idx <= drainWindow {
				oldest = ring.times[0]
			} else {
				oldest = ring.times[ring.idx%drainWindow]
			}
		}
	}
	s.drainMu.Unlock()
	if n < 2 {
		return 1
	}
	span := now.Sub(oldest).Seconds()
	if span <= 0 {
		return 1
	}
	rate := float64(n) / span // completions per second
	depth := float64(s.queued.Load())
	if depth < 1 {
		depth = 1
	}
	secs := int(math.Ceil(depth / rate))
	if secs < 1 {
		return 1
	}
	if secs > 30 {
		return 30
	}
	return secs
}
