package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"polaris/internal/core"
	"polaris/internal/fabric"
	"polaris/internal/obsv"
	"polaris/internal/suite"
	"polaris/internal/telemetry"
)

// answer is one /v1/compile response as a path produced it: which path,
// the label it was asked under, the outcome it must report, and the
// decoded body.
type answer struct {
	path, label, outcome string
	resp                 CompileResponse
}

// normalized is the response with everything a path may legitimately
// change blanked: who asked, how it was satisfied, the incremental-only
// fields and pass, and the timings of whichever compile filled the entry. What
// is left — verdicts, decisions, pass names and mutation counts — must
// not depend on the path. The label is checked, then blanked too, so
// answers under different labels compare.
func (a answer) normalized(t *testing.T) []byte {
	t.Helper()
	r := a.resp
	if r.Outcome != a.outcome {
		t.Errorf("%s as %q: outcome %q, want %q", a.path, a.label, r.Outcome, a.outcome)
	}
	if r.Label != a.label {
		t.Errorf("%s as %q: response labelled %q", a.path, a.label, r.Label)
	}
	r.Decisions = slices.Clone(r.Decisions)
	for i, d := range r.Decisions {
		if d.Label != a.label {
			t.Errorf("%s as %q: decision for %s labelled %q", a.path, a.label, d.Loop, d.Label)
		}
		r.Decisions[i].Label = ""
	}
	r.Label, r.RequestID, r.Outcome, r.LeaderID, r.Cached = "", "", "", "", false
	r.Incremental, r.ProgramHash, r.UnitsReused, r.UnitsRecompiled = false, "", 0, 0
	var report []PassReport
	for _, ev := range r.Report {
		if ev.Pass == "unit-hash" {
			continue // the pass only a compile against the unit memo runs
		}
		ev.DurationNS = 0
		report = append(report, ev)
	}
	r.Report = report
	out, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// compileAs posts src under label and decodes the answer.
func compileAs(t *testing.T, h http.Handler, query, src, label string) CompileResponse {
	t.Helper()
	w := postJSON(t, h, "/v1/compile"+query, CompileRequest{Source: src, Label: label})
	if w.Code != http.StatusOK {
		t.Fatalf("compile as %q: %d %s", label, w.Code, w.Body.String())
	}
	return decodeBody[CompileResponse](t, w)
}

// everyPath drives src through every path of the service that can
// produce a verdict, with lead the label of whichever request fills an
// entry and other the label of a request that finds it filled, so both
// labels are answered from a list the other one recorded.
func everyPath(t *testing.T, src, lead, other string) []answer {
	t.Helper()
	var out []answer
	add := func(path, label, outcome string, resp CompileResponse) {
		out = append(out, answer{path, label, outcome, resp})
	}

	// One node: cold, then hits under both labels.
	solo := New(Config{Workers: 4})
	add("cold", lead, "cold", compileAs(t, solo.Handler(), "", src, lead))
	add("cache_hit", other, "cache_hit", compileAs(t, solo.Handler(), "", src, other))
	add("cache_hit", lead, "cache_hit", compileAs(t, solo.Handler(), "", src, lead))
	// The entry's list went out three times and must read as recorded.
	opt := core.PolarisOptions()
	e, _, err := solo.compiled(context.Background(), solo.cache, core.KeyOf(src, opt), src, opt, compileSource(src))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range e.decisions {
		if d.Label != lead {
			t.Errorf("the entry's own list now carries label %q (recorded under %q): a response wrote it", d.Label, lead)
			break
		}
	}

	// One node, the leader held in flight while both labels park on it.
	co2 := New(Config{Workers: 4})
	started, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		opt := core.PolarisOptions()
		opt.TraceLabel = lead
		ctx := telemetry.WithRequestID(context.Background(), "path-leader")
		_, _, err := co2.compiled(ctx, co2.cache, core.KeyOf(src, opt), src, opt,
			func(ctx context.Context, o core.Options) (*core.Result, []obsv.Decision, error) {
				close(started)
				<-release
				return compileSource(src)(ctx, o)
			})
		leaderDone <- err
	}()
	<-started
	waiters := []string{other, lead}
	parked := make([]CompileResponse, len(waiters))
	var wg sync.WaitGroup
	for i, label := range waiters {
		wg.Add(1)
		go func(i int, label string) {
			defer wg.Done()
			w := postJSON(t, co2.Handler(), "/v1/compile", CompileRequest{Source: src, Label: label})
			if w.Code != http.StatusOK {
				t.Errorf("coalesced as %q: %d %s", label, w.Code, w.Body.String())
				return
			}
			parked[i] = decodeBody[CompileResponse](t, w)
		}(i, label)
	}
	for co2.cache.Stats().Hits < int64(len(waiters)) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if err := <-leaderDone; err != nil {
		t.Fatalf("coalescing leader: %v", err)
	}
	for i, label := range waiters {
		add("coalesced", label, "coalesced", parked[i])
	}

	// Two nodes, nothing warm: the requester's miss makes the owner
	// compile (peer_miss), under no label at all; the owner's own
	// client then hits that entry.
	p := newFabricPair(t, 2*time.Second, nil)
	add("peer_miss", lead, "peer_miss", compileAs(t, p.b.Handler(), "", src, lead))
	add("owner_hit_after_fill", other, "cache_hit", compileAs(t, p.a.Handler(), "", src, other))
	add("requester_hit_after_fill", other, "cache_hit", compileAs(t, p.b.Handler(), "", src, other))

	// Two nodes, the owner warm under one label, the fill under the other.
	q := newFabricPair(t, 2*time.Second, nil)
	add("owner_cold", lead, "cold", compileAs(t, q.a.Handler(), "", src, lead))
	add("peer_hit", other, "peer_hit", compileAs(t, q.b.Handler(), "", src, other))
	add("requester_hit_after_fill", lead, "cache_hit", compileAs(t, q.b.Handler(), "", src, lead))

	// Two nodes, the requester's hot tier one entry deep: another
	// peer-owned key evicts the entry, and the repeat fills it again.
	owner, requester, _, ring := handlerPair(t, Config{Workers: 4, CacheEntries: 8})
	compileAs(t, owner.Handler(), "", src, lead)
	compileAs(t, requester.Handler(), "", src, other)
	compileAs(t, requester.Handler(), "", sourceOwnedBy(t, ring, "a", saxpySrc), other)
	if st := requester.hot.Stats(); st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("the requester's hot tier before the repeat: %+v, want the evicting key alone", st)
	}
	add("requester_repeat_after_hot_eviction", lead, "peer_hit", compileAs(t, requester.Handler(), "", src, lead))

	// A batch: both labels in one body, whichever of them leads.
	batch := New(Config{Workers: 4})
	w := postJSON(t, batch.Handler(), "/v1/compile", []CompileRequest{{Source: src, Label: lead}, {Source: src, Label: other}})
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body.String())
	}
	for i, item := range decodeBody[BatchResponse](t, w).Items {
		if item.Status != http.StatusOK || item.Result == nil {
			t.Fatalf("batch item %d: %+v", i, item)
		}
		add("batch", item.Result.Label, item.Result.Outcome, *item.Result)
	}

	// The unit memo: cold against it, then a whole-program hit.
	incr := New(Config{Workers: 4})
	add("incremental", lead, "cold", compileAs(t, incr.Handler(), "?incremental=1", src, lead))
	add("incremental_hit", other, "cache_hit", compileAs(t, incr.Handler(), "?incremental=1", src, other))
	return out
}

// TestServicePathEquivalence is the north star's "every path that can
// produce a verdict" for the service: for each of the 16 suite
// programs, the /v1/compile body from a cold compile, a cache hit, a
// coalesced wait, a peer miss, a peer hit, a second fill after the
// requester's hot tier evicted the entry, a batch item and an
// incremental compile is the same bytes once the fields that say which
// path it was are blanked — under two client labels, each answered from
// provenance the other recorded. It is the proof that handing out the
// cache's own decision list, instead of replaying a copy per request,
// changed no response.
func TestServicePathEquivalence(t *testing.T) {
	ring, err := fabric.New(fabric.Config{Self: "a", Peers: map[string]string{"a": "http://a.invalid", "b": "http://b.invalid"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range suite.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			// Every pair's ring is this ring: ownership hangs on the node
			// names alone.
			src := sourceOwnedBy(t, ring, "a", p.Source)
			answers := append(everyPath(t, src, "alpha", "beta"), everyPath(t, src, "beta", "alpha")...)
			want := answers[0].normalized(t)
			for _, a := range answers[1:] {
				if got := a.normalized(t); !bytes.Equal(got, want) {
					t.Errorf("%s as %q differs from %s as %q:\n got %s\nwant %s",
						a.path, a.label, answers[0].path, answers[0].label, got, want)
				}
			}
		})
	}
}
