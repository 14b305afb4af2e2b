// Package telemetry is the service-grade observability layer of the
// Polaris reproduction: request-scoped IDs, fixed-bucket latency
// histograms, and Prometheus text exposition.
//
// The package is deliberately dependency-free (stdlib only) and sits
// below every other layer: internal/suite threads request IDs through
// its singleflight compile cache so coalesced waiters can name the
// leader that did the work, and internal/server records one histogram
// sample per request under a (route, outcome) pair.
//
// The outcome taxonomy is fixed so dashboards and tests can enumerate
// it: a request is exactly one of cold (this request ran the compile),
// cache_hit (served from a completed cache entry), coalesced (waited
// on another request's in-flight compile), incremental_hit (an
// incremental compile that ran but reused memoized units), shed (429
// at admission), timeout (deadline expired, 504), canceled (client
// went away, 499), error (any other failure), or ok (non-compile
// endpoints).
package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync/atomic"
)

// Request outcomes. Compile-shaped requests resolve to one of the
// first three on success; the failure outcomes are derived from the
// HTTP status. OutcomeOK is for plain endpoints (healthz, metrics).
const (
	OutcomeCold      = "cold"
	OutcomeCacheHit  = "cache_hit"
	OutcomeCoalesced = "coalesced"
	// OutcomeIncrementalHit marks an incremental compile
	// (?incremental=1) that missed the whole-program cache but reused
	// at least one unit from the per-unit memo — the interesting middle
	// ground between cold and cache_hit that the incremental feature
	// exists to create.
	OutcomeIncrementalHit = "incremental_hit"
	// OutcomePeerHit / OutcomePeerMiss mark compiles satisfied by a
	// peer cache-fill from the key's owner on the fabric ring:
	// peer_hit when the owner's tier was already warm, peer_miss when
	// the fill made the owner compile it cold (this node still skipped
	// the work). A failed fill is not an outcome — the request degrades
	// to a local compile and reports cold; the failure is visible in
	// the server_peer_errors counter.
	OutcomePeerHit  = "peer_hit"
	OutcomePeerMiss = "peer_miss"
	OutcomeShed     = "shed"
	OutcomeTimeout  = "timeout"
	OutcomeCanceled = "canceled"
	OutcomeError    = "error"
	OutcomeOK       = "ok"
)

type requestIDKey struct{}

// WithRequestID returns ctx tagged with the request ID. The ID rides
// the context through admission, the singleflight cache, and the pass
// manager, so any layer can attribute work to the request that caused
// it.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestID returns the request ID carried by ctx, or "" when none is
// attached (library callers that never set one).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// reqSeq backs the fallback ID generator when crypto/rand fails.
var reqSeq atomic.Int64

// NewRequestID returns a fresh 16-hex-character request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is effectively unreachable; keep IDs unique
		// anyway.
		n := reqSeq.Add(1)
		for i := 0; i < 8; i++ {
			b[i] = byte(n >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// ValidRequestID reports whether a client-supplied ID is safe to adopt
// verbatim: 1–64 characters drawn from [A-Za-z0-9._-]. Anything else
// (control bytes, log-breaking whitespace, unbounded length) is
// rejected and the caller generates a fresh ID instead.
func ValidRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}
