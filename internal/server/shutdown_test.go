package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"polaris/internal/suite"
)

// TestGracefulShutdownDrainsInflight starts a real listener, launches
// in-flight compiles, then shuts the server down mid-stream. Every
// request that was accepted must complete with a real answer (200 or a
// deliberate 429) — never a connection reset — the listener must stop
// (Serve returns http.ErrServerClosed), and the goroutine count must
// settle back to its pre-server baseline: no leaked workers, no stuck
// singleflight waiters.
func TestGracefulShutdownDrainsInflight(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s := New(Config{Workers: 4, QueueDepth: 32})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	base := "http://" + l.Addr().String()

	// Distinct sources so every request is a real in-flight compile, not
	// a cache hit racing ahead of the shutdown.
	progs := suite.All()
	const n = 12
	var wg sync.WaitGroup
	codes := make([]int, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := progs[i%len(progs)]
			body, _ := json.Marshal(CompileRequest{
				Source: fmt.Sprintf("C shutdown probe %d\n%s", i, p.Source),
				Label:  fmt.Sprintf("drain-%d", i),
			})
			resp, err := http.Post(base+"/v1/compile", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}

	// Let the requests reach the server, then drain.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()

	accepted := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			// A request the server never accepted (connection refused after
			// the listener closed) is fine; a reset mid-response is not.
			continue
		}
		accepted++
		// 200: drained to completion; 429: deliberately shed before the
		// drain; 503: accepted on a kept-alive connection after draining
		// began and turned away with Connection: close.
		if codes[i] != http.StatusOK && codes[i] != http.StatusTooManyRequests &&
			codes[i] != http.StatusServiceUnavailable {
			t.Errorf("accepted request %d finished with status %d", i, codes[i])
		}
	}
	if accepted == 0 {
		t.Fatal("no request was accepted before shutdown; test proves nothing")
	}

	select {
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}

	// Goroutine accounting: everything the server spawned must be gone.
	waitGoroutines(t, baseline)
}

// waitGoroutines fails the test unless the goroutine count settles back
// to baseline. It polls with a deadline — the HTTP client's idle
// connections and the runtime take a moment to settle.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestDrainingRejects503 pins the shutdown-path shedding contract: a
// request landing on a draining server (e.g. over an already-open
// keep-alive connection) is refused with 503 + Connection: close — not
// 429 + Retry-After, which would promise capacity that will never
// exist again and keep well-behaved clients retrying into a corpse.
func TestDrainingRejects503(t *testing.T) {
	s := New(Config{Workers: 2})
	s.draining.Store(true)

	for _, route := range []string{"/v1/compile", "/v1/emit", "/v1/explain"} {
		w := postJSON(t, s.Handler(), route, CompileRequest{Source: saxpySrc})
		if w.Code != http.StatusServiceUnavailable {
			t.Errorf("%s while draining: %d, want 503", route, w.Code)
		}
		if got := w.Header().Get("Connection"); got != "close" {
			t.Errorf("%s while draining: Connection = %q, want close", route, got)
		}
		if ra := w.Header().Get("Retry-After"); ra != "" {
			t.Errorf("%s while draining: unexpected Retry-After %q", route, ra)
		}
	}

	// shedResponse itself must take the draining branch too: a request
	// that loses the admission race during shutdown gets the same 503,
	// not a capacity hint.
	rec := httptest.NewRecorder()
	s.shedResponse(rec, "compile")
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("shedResponse while draining: %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Connection"); got != "close" {
		t.Errorf("shedResponse while draining: Connection = %q, want close", got)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "" {
		t.Errorf("shedResponse while draining: unexpected Retry-After %q", ra)
	}
}

// TestShutdownRejectsNewWork: once draining, /healthz reports 503 so
// load balancers stop routing, and a fresh connection cannot start new
// work.
func TestShutdownRejectsNewWork(t *testing.T) {
	s := New(Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	base := "http://" + l.Addr().String()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before shutdown: %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if !s.draining.Load() {
		t.Error("server not marked draining after Shutdown")
	}
	if _, err := http.Post(base+"/v1/compile", "application/json",
		bytes.NewReader([]byte(`{"source":"X"}`))); err == nil {
		t.Error("new connection accepted after shutdown")
	}
	<-done
}
