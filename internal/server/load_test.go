package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polaris/internal/core"
	"polaris/internal/suite"
)

// coldCompile is what one cold compile of the 16-program suite cost
// when this test was written; the warm-hit latency bar below is "a
// cache hit must beat one cold compile".
const coldCompile = 30 * time.Millisecond

// TestServeLoad is the PR's acceptance gate: ≥200 concurrent
// /v1/compile requests mixed across the 16 suite programs and two
// technique sets, pushed through a cache capped well below the
// 32-entry working set. Every request must succeed or be a deliberate
// 429 (retried until admitted); after the storm the cache must respect
// both caps with byte accounting that matches a from-scratch walk of
// the live entries, and a warm cache hit must beat one cold compile
// of the suite.
func TestServeLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	progs := suite.All()
	if len(progs) != 16 {
		t.Fatalf("suite has %d programs, want 16", len(progs))
	}

	// Two option sets: the full Polaris pipeline (empty technique list)
	// and everything minus the run-time pass, giving a 32-entry working
	// set against an 8-entry cache.
	var reduced []string
	for _, n := range core.TechniqueNames() {
		if n != "run-time-test" {
			reduced = append(reduced, n)
		}
	}
	optionSets := [][]string{nil, reduced}

	const cacheCap = 8
	s := New(Config{
		Workers:      8,
		QueueDepth:   16,
		CacheEntries: cacheCap,
		CacheBytes:   64 << 20,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	client.Timeout = 60 * time.Second

	post := func(req CompileRequest) (*CompileResponse, int, error) {
		body, _ := json.Marshal(req)
		resp, err := client.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var eb errorBody
			json.NewDecoder(resp.Body).Decode(&eb)
			return nil, resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, eb.Error)
		}
		var cr CompileResponse
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			return nil, resp.StatusCode, err
		}
		return &cr, resp.StatusCode, nil
	}

	const requests = 240
	var (
		wg        sync.WaitGroup
		shed429   atomic.Int64
		hardFails atomic.Int64
	)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := CompileRequest{
				Source:     progs[i%len(progs)].Source,
				Label:      fmt.Sprintf("load-%d", i),
				Techniques: optionSets[(i/len(progs))%len(optionSets)],
				TimeoutMS:  30000,
			}
			for attempt := 0; ; attempt++ {
				cr, code, err := post(req)
				if code == http.StatusTooManyRequests {
					// Deliberate shed: honor Retry-After (1s) scaled down so
					// the test converges quickly, and try again.
					shed429.Add(1)
					if attempt > 200 {
						hardFails.Add(1)
						t.Errorf("request %d still shed after %d attempts", i, attempt)
						return
					}
					time.Sleep(10 * time.Millisecond)
					continue
				}
				if err != nil {
					hardFails.Add(1)
					t.Errorf("request %d: %v", i, err)
					return
				}
				if len(cr.Verdicts) == 0 || len(cr.Decisions) == 0 {
					hardFails.Add(1)
					t.Errorf("request %d: empty verdicts/decisions (cached=%v)", i, cr.Cached)
				}
				return
			}
		}(i)
	}
	wg.Wait()

	if hardFails.Load() != 0 {
		t.Fatalf("%d non-429 failures", hardFails.Load())
	}
	st := s.CacheStats()
	t.Logf("load: %d requests, %d shed-and-retried; cache entries=%d bytes=%d hits=%d misses=%d evictions=%d retries=%d",
		requests, shed429.Load(), st.Entries, st.Bytes, st.Hits, st.Misses, st.Evictions, st.Retries)

	// The 32-entry working set through an 8-entry cache must evict.
	if st.Evictions == 0 {
		t.Error("no evictions despite working set 4x cache capacity")
	}
	if st.Entries > cacheCap {
		t.Errorf("cache holds %d entries, cap %d", st.Entries, cacheCap)
	}
	// Flat byte accounting: the stats counter must equal a from-scratch
	// walk over the entries actually alive after all that churn.
	if live := s.cache.LiveBytes(); live != st.Bytes {
		t.Errorf("byte accounting drifted: stats say %d, live entries sum to %d", st.Bytes, live)
	}
	if st.Bytes < 0 {
		t.Errorf("negative cache bytes: %d", st.Bytes)
	}

	// Warm-hit latency: prime one entry, then measure hit latency
	// sequentially. p50 must beat one cold compile of the suite.
	warmReq := CompileRequest{Source: progs[0].Source, Label: "warm"}
	if _, _, err := post(warmReq); err != nil {
		t.Fatalf("warm prime: %v", err)
	}
	const samples = 21
	lat := make([]time.Duration, 0, samples)
	for i := 0; i < samples; i++ {
		start := time.Now()
		cr, _, err := post(warmReq)
		if err != nil {
			t.Fatalf("warm sample %d: %v", i, err)
		}
		if !cr.Cached {
			t.Fatalf("warm sample %d missed the cache", i)
		}
		lat = append(lat, time.Since(start))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p50 := lat[len(lat)/2]
	t.Logf("warm-hit p50 %v vs cold compile %v", p50, coldCompile)
	if p50 >= coldCompile {
		t.Errorf("warm-hit p50 %v is not below one cold compile %v", p50, coldCompile)
	}
}
