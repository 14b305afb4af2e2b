package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestTenantAdmissionBudget drives admit directly: with capacity 4 and
// a 25% share, each tenant's budget is one slot. Tenant a's second
// concurrent request sheds while tenant b and headerless traffic are
// still admitted — one flooding tenant cannot starve the fleet.
func TestTenantAdmissionBudget(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 2, TenantShare: 0.25})
	if lim := s.tenantLimit(); lim != 1 {
		t.Fatalf("tenantLimit = %d, want 1", lim)
	}
	ctx := context.Background()

	relA, shed := s.admit(ctx, "compile", "a")
	if shed || relA == nil {
		t.Fatal("tenant a's first request must be admitted")
	}
	if rel, shed := s.admit(ctx, "compile", "a"); !shed {
		rel()
		t.Fatal("tenant a's second request must shed at its budget")
	}
	if n := s.obs.Counters()["server_tenant_shed_total"]; n != 1 {
		t.Errorf("server_tenant_shed_total = %d, want 1", n)
	}
	relB, shed := s.admit(ctx, "compile", "b")
	if shed || relB == nil {
		t.Fatal("tenant b must be admitted while a is at budget")
	}

	// Pin the global count at capacity: headerless traffic sheds on the
	// global budget, and that shed is not charged as a tenant shed.
	limit := int64(s.cfg.Workers + s.cfg.QueueDepth)
	before := s.queued.Load()
	s.queued.Store(limit)
	if rel, shed := s.admit(ctx, "compile", ""); !shed {
		rel()
		t.Fatal("headerless request must shed once global capacity is full")
	}
	s.queued.Store(before)
	if n := s.obs.Counters()["server_tenant_shed_total"]; n != 1 {
		t.Errorf("server_tenant_shed_total = %d after global shed, want still 1", n)
	}

	// Release frees both the global slot and the tenant budget.
	relA()
	relA2, shed := s.admit(ctx, "compile", "a")
	if shed || relA2 == nil {
		t.Fatal("tenant a must be admitted again after release")
	}
	relA2()
	relB()
}

// TestTenantBudgetOverHTTP covers the header path end to end: with
// tenant a pinned at its budget, a's request sheds with 429 while b's
// identical request (and a headerless one) compiles.
func TestTenantBudgetOverHTTP(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 2, TenantShare: 0.25}) // budget: 1 slot
	s.tenantCount("a").Store(s.tenantLimit())                      // tenant a is flooding

	do := func(tenant string) *httptest.ResponseRecorder {
		body := []byte(`{"source":` + jsonString(saxpySrc) + `}`)
		r := httptest.NewRequest("POST", "/v1/compile", bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			r.Header.Set("X-Polaris-Tenant", tenant)
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		return w
	}

	if w := do("a"); w.Code != http.StatusTooManyRequests {
		t.Errorf("flooding tenant: %d, want 429", w.Code)
	}
	if w := do("b"); w.Code != http.StatusOK {
		t.Errorf("well-behaved tenant: %d %s, want 200", w.Code, w.Body.String())
	}
	if w := do(""); w.Code != http.StatusOK {
		t.Errorf("headerless request: %d, want 200", w.Code)
	}
}
