package server

import (
	"testing"
	"time"
)

// TestRetryAfterSameTimestampBurst records a burst of completions that
// all share one clock reading — the divide-by-~zero hazard in the
// drain-rate estimate. A queue that just drained many requests in a
// single tick is draining fast, so the hint must be the 1-second
// floor, never the 30-second clamp the naive depth/rate math would
// produce from a zero span.
func TestRetryAfterSameTimestampBurst(t *testing.T) {
	s := New(Config{})
	t0 := time.Now()
	for i := 0; i < 10; i++ {
		s.noteCompletion("compile", t0)
	}
	s.queued.Store(int64(s.cfg.QueueDepth))
	if got := s.retryAfterSeconds("compile", t0); got != 1 {
		t.Fatalf("same-timestamp burst: Retry-After = %d, want 1", got)
	}
}

// TestRetryAfterClockStep feeds retryAfterSeconds a "now" that lies
// before the recorded completions (a wall-clock step backwards, or a
// caller reading a different clock than the recorder): the negative
// span must fall back to the 1-second floor rather than producing a
// negative rate and a garbage hint.
func TestRetryAfterClockStep(t *testing.T) {
	s := New(Config{})
	t0 := time.Now()
	s.noteCompletion("compile", t0)
	s.noteCompletion("compile", t0.Add(500*time.Millisecond))
	s.queued.Store(8)
	if got := s.retryAfterSeconds("compile", t0.Add(-time.Hour)); got != 1 {
		t.Fatalf("backwards clock step: Retry-After = %d, want 1", got)
	}
}

// TestRetryAfterNoHistory covers the cold-server shed: fewer than two
// completions give no rate estimate, so the hint is the 1-second
// floor.
func TestRetryAfterNoHistory(t *testing.T) {
	s := New(Config{})
	if got := s.retryAfterSeconds("compile", time.Now()); got != 1 {
		t.Fatalf("no history: Retry-After = %d, want 1", got)
	}
	s.noteCompletion("compile", time.Now())
	if got := s.retryAfterSeconds("compile", time.Now()); got != 1 {
		t.Fatalf("single completion: Retry-After = %d, want 1", got)
	}
}

// TestRetryAfterDrainEstimate checks the ordinary path the guards must
// not disturb: n completions spread over a positive span yield
// ceil(depth/rate), clamped to [1, 30].
func TestRetryAfterDrainEstimate(t *testing.T) {
	s := New(Config{})
	t0 := time.Now()
	// 10 completions over 9 seconds ending at t0: rate ≈ 1.11/s.
	for i := 0; i < 10; i++ {
		s.noteCompletion("compile", t0.Add(time.Duration(i-9)*time.Second))
	}
	s.queued.Store(5)
	// depth 5 at ~1.11/s → ceil(4.5) = 5.
	if got := s.retryAfterSeconds("compile", t0); got != 5 {
		t.Fatalf("drain estimate: Retry-After = %d, want 5", got)
	}
	// A deep queue against the same rate hits the 30-second cap.
	s.queued.Store(1000)
	if got := s.retryAfterSeconds("compile", t0); got != 30 {
		t.Fatalf("deep queue: Retry-After = %d, want the 30s clamp", got)
	}
}

// TestRetryAfterPerRouteIsolation is the mixed-traffic regression: a
// flood of cheap /v1/explain completions must not deflate the hint
// handed to shed compile requests. Each route keeps its own
// completion ring, so slow compile drainage and fast explain drainage
// produce independent Retry-After hints from the same queue depth.
func TestRetryAfterPerRouteIsolation(t *testing.T) {
	s := New(Config{})
	t0 := time.Now()
	// Compile drains slowly: 10 completions over 90 seconds (~0.11/s).
	for i := 0; i < 10; i++ {
		s.noteCompletion("compile", t0.Add(time.Duration((i-9)*10)*time.Second))
	}
	// Explain drains fast: a full ring at 15ms spacing (~67/s).
	for i := 0; i < drainWindow; i++ {
		s.noteCompletion("explain", t0.Add(time.Duration(i-drainWindow+1)*15*time.Millisecond))
	}
	s.queued.Store(5)

	// depth 5 at ~0.11/s → 45s, clamped to 30. Before per-route rings,
	// the explain flood dragged this down to the 1-second floor.
	if got := s.retryAfterSeconds("compile", t0); got != 30 {
		t.Errorf("compile hint amid explain flood: Retry-After = %d, want the 30s clamp", got)
	}
	// The same depth drains in well under a second at explain's rate.
	if got := s.retryAfterSeconds("explain", t0); got != 1 {
		t.Errorf("explain hint: Retry-After = %d, want 1", got)
	}
	// A route with no history falls back to the floor, not another
	// route's ring.
	if got := s.retryAfterSeconds("emit", t0); got != 1 {
		t.Errorf("cold route hint: Retry-After = %d, want 1", got)
	}
}

// TestRetryAfterRingWrap pushes more completions than the ring holds:
// the oldest surviving sample (not a stale overwritten slot) must
// anchor the span. All samples land one second apart, so the estimate
// stays finite and sane after wrap.
func TestRetryAfterRingWrap(t *testing.T) {
	s := New(Config{})
	t0 := time.Now()
	total := drainWindow + 17
	for i := 0; i < total; i++ {
		s.noteCompletion("compile", t0.Add(time.Duration(i-total+1)*time.Second))
	}
	s.queued.Store(1)
	// Window of 64 samples spanning 63 seconds: rate ≈ 1.016/s, depth 1
	// → 1 second.
	if got := s.retryAfterSeconds("compile", t0); got != 1 {
		t.Fatalf("after ring wrap: Retry-After = %d, want 1", got)
	}
}
