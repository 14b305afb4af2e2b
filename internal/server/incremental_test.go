package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"polaris/internal/telemetry"
)

// incrementalSrc builds a 4-unit program (MAIN + S1..S3) whose S2 body
// depends on c, so two sources with different c differ in exactly one
// unit. COMMON keeps the subroutines out of MAIN via inlining, which
// would otherwise smear a one-unit edit across two units.
func incrementalSrc(c string) string {
	const tmpl = `      PROGRAM MAIN
      REAL A(64), B(64)
      INTEGER I
      COMMON /BLK/ A, B
      DO I = 1, 64
        A(I) = B(I) + 1.0
      END DO
      END

      SUBROUTINE S1(N)
      INTEGER N
      REAL A(64), B(64)
      INTEGER I
      COMMON /BLK/ A, B
      DO I = 1, 64
        A(I) = A(I) * 2.0
      END DO
      END

      SUBROUTINE S2(DUMMY)
      REAL DUMMY
      REAL A(64), B(64)
      INTEGER J
      COMMON /BLK/ A, B
      DO J = 1, 64
        B(J) = A(J) + %s
      END DO
      END

      SUBROUTINE S3(DUMMY)
      REAL DUMMY
      REAL A(64), B(64)
      INTEGER K
      COMMON /BLK/ A, B
      DO K = 1, 64
        B(K) = A(K) + 4.0
      END DO
      END
`
	return fmt.Sprintf(tmpl, c)
}

// TestCompileIncrementalEndpoint drives the ?incremental=1 surface end
// to end: warm the unit memo with one program, edit one unit, and
// require the second compile to reuse everything else, flip the
// outcome to incremental_hit, and report the reuse split — while a
// byte-identical re-POST still resolves as a whole-program cache_hit.
func TestCompileIncrementalEndpoint(t *testing.T) {
	s := New(Config{})
	base := incrementalSrc("3.0")
	edited := incrementalSrc("7.0")

	warm := decodeBody[CompileResponse](t, mustPost(t, s, "/v1/compile?incremental=1",
		CompileRequest{Source: base, Label: "warm"}))
	if !warm.Incremental || warm.Outcome != telemetry.OutcomeCold {
		t.Fatalf("warm: incremental=%v outcome=%q, want true/cold", warm.Incremental, warm.Outcome)
	}
	if warm.UnitsReused != 0 || warm.UnitsRecompiled != 4 {
		t.Fatalf("warm: reused=%d recompiled=%d, want 0/4", warm.UnitsReused, warm.UnitsRecompiled)
	}
	wantHash := sha256.Sum256([]byte(base))
	if warm.ProgramHash != hex.EncodeToString(wantHash[:]) {
		t.Fatalf("warm program_hash = %q, want sha256 of source", warm.ProgramHash)
	}

	inc := decodeBody[CompileResponse](t, mustPost(t, s, "/v1/compile?incremental=1",
		CompileRequest{Source: edited, Label: "edit", Previous: warm.ProgramHash}))
	if inc.Outcome != telemetry.OutcomeIncrementalHit {
		t.Fatalf("edited: outcome = %q, want %q", inc.Outcome, telemetry.OutcomeIncrementalHit)
	}
	if inc.UnitsReused != 3 || inc.UnitsRecompiled != 1 {
		t.Fatalf("edited: reused=%d recompiled=%d, want 3/1", inc.UnitsReused, inc.UnitsRecompiled)
	}
	if inc.Cached {
		t.Error("edited source must miss the whole-program cache")
	}

	// The incremental compile must be indistinguishable from a scratch
	// compile of the same source on a fresh server.
	scratch := decodeBody[CompileResponse](t, mustPost(t, New(Config{}), "/v1/compile",
		CompileRequest{Source: edited, Label: "edit"}))
	if !reflect.DeepEqual(inc.Verdicts, scratch.Verdicts) {
		t.Errorf("incremental verdicts diverge from scratch:\n inc: %+v\n scr: %+v", inc.Verdicts, scratch.Verdicts)
	}
	if len(inc.Decisions) != len(scratch.Decisions) {
		t.Errorf("incremental has %d decisions, scratch has %d", len(inc.Decisions), len(scratch.Decisions))
	}

	// A byte-identical re-POST is a whole-program cache hit: the
	// stronger outcome wins and the reuse split is suppressed.
	again := decodeBody[CompileResponse](t, mustPost(t, s, "/v1/compile?incremental=1",
		CompileRequest{Source: edited, Label: "again"}))
	if again.Outcome != telemetry.OutcomeCacheHit || !again.Cached {
		t.Fatalf("re-POST: outcome=%q cached=%v, want cache_hit/true", again.Outcome, again.Cached)
	}
	if again.UnitsReused != 0 || again.UnitsRecompiled != 0 {
		t.Errorf("re-POST: reused=%d recompiled=%d, want 0/0 on a cache hit",
			again.UnitsReused, again.UnitsRecompiled)
	}

	// Without ?incremental=1 the surface stays inert.
	plain := decodeBody[CompileResponse](t, mustPost(t, s, "/v1/compile",
		CompileRequest{Source: incrementalSrc("9.0"), Label: "plain"}))
	if plain.Incremental || plain.ProgramHash != "" || plain.UnitsReused != 0 {
		t.Errorf("plain compile leaked incremental fields: %+v", plain)
	}

	// Memo stats flow to both metrics surfaces, and the incremental_hit
	// outcome shows up as its own latency series.
	if ms := s.memo.Stats(); ms.Hits < 3 || ms.Misses < 5 {
		t.Errorf("memo stats hits=%d misses=%d, want ≥3 hits and ≥5 misses", ms.Hits, ms.Misses)
	}
	var m Metrics
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if m.UnitMemo.Hits < 3 || m.UnitMemo.Entries == 0 || m.UnitMemo.HitRatio <= 0 {
		t.Errorf("metrics unit_memo = %+v, want populated", m.UnitMemo)
	}
	found := false
	for _, ls := range m.Latency {
		if ls.Route == "compile" && ls.Outcome == telemetry.OutcomeIncrementalHit {
			found = true
		}
	}
	if !found {
		t.Errorf("no compile/incremental_hit latency series in %+v", m.Latency)
	}
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	for _, want := range []string{
		"polaris_unit_memo_hits_total 3",
		"polaris_unit_memo_entries",
		`outcome="incremental_hit"`,
	} {
		if !strings.Contains(w.Body.String(), want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// TestCompileIncrementalRejectsBaseline: the PFA baseline path has no
// unit pipeline, so combining it with ?incremental=1 is a client error.
func TestCompileIncrementalRejectsBaseline(t *testing.T) {
	s := New(Config{})
	w := postJSON(t, s.Handler(), "/v1/compile?incremental=1",
		CompileRequest{Source: saxpySrc, Baseline: true})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("baseline+incremental: status %d, want 400: %s", w.Code, w.Body.String())
	}
}

func mustPost(t *testing.T, s *Server, path string, req CompileRequest) *httptest.ResponseRecorder {
	t.Helper()
	w := postJSON(t, s.Handler(), path, req)
	if w.Code != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", path, w.Code, w.Body.String())
	}
	return w
}
