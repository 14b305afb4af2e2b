package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"polaris/internal/codegen"
	"polaris/internal/core"
	"polaris/internal/fabric"
	"polaris/internal/obsv"
	"polaris/internal/parser"
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

	// One node, the leader held in flight while both labels park on it.
	co2 := New(Config{Workers: 4})
	started, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		opt := core.PolarisOptions()
		key := core.KeyOf(src, opt)
		ctx := telemetry.WithRequestID(context.Background(), "path-leader")
		_, _, err := co2.compiled(ctx, co2.cache, key, opt,
			func(ctx context.Context, o core.Options) (*cacheEntry, error) {
				close(started)
				<-release
				return compileSource(key, src, nil)(ctx, o)
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
// an entry the other's request filled. It is the proof that keeping the
// encoded entry, and decoding a view of it per request, changed no
// response. The entry's other readers answer under both labels too, on
// a hit: emit go, emit fortran, and a verbose explain, each equal to
// what the back ends and the explainer make of a direct compile; and an
// emit whose stored entry was corrupted, which compiles locally instead.
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
			for _, label := range []string{"alpha", "beta"} {
				readerRows(t, src, label)
			}
		})
	}
}

// direct compiles src outside the service — the reference a response
// is held to — and returns the result and the decisions it recorded.
func direct(t *testing.T, src string) (*core.Result, []obsv.Decision) {
	t.Helper()
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.PolarisOptions()
	capture := obsv.NewCapture(nil)
	opt.Observer = capture
	res, err := core.Compile(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, capture.Decisions()
}

// readerRows drives the readers of a cached entry other than
// /v1/compile under label — emit go, emit fortran and a verbose explain
// on a hit, and emit go from a stored entry corrupted past its checksum
// — and holds each to what a direct compile of src gives.
func readerRows(t *testing.T, src, label string) {
	t.Helper()
	res, ds := direct(t, src)
	wantGo, goErr := codegen.EmitGo(res, codegen.GoOptions{Label: label})
	wantEmit := map[string]string{"go": wantGo, "fortran": codegen.EmitFortran(res)}
	wantVerdicts := verdicts(res.Loops)
	wantExplain := ExplainResponse{Label: label, Lines: obsv.ExplainAll(obsv.FinalDecisions(ds, ""))}
	for _, d := range ds {
		if d.Loop != "" {
			d.Label = label
			wantExplain.Trail = append(wantExplain.Trail, d)
		}
	}

	emit := func(path string, s *Server, target, outcome string) {
		t.Helper()
		w := postJSON(t, s.Handler(), "/v1/emit", EmitRequest{Source: src, Label: label, Target: target})
		var refusal *codegen.UnsupportedError
		if target == "go" && errors.As(goErr, &refusal) {
			if got := decodeBody[errorBody](t, w); w.Code != http.StatusUnprocessableEntity || got.Error != goErr.Error() {
				t.Errorf("%s as %q: %d %+v, want the back end's refusal %q", path, label, w.Code, got, goErr)
			}
			return
		}
		if w.Code != http.StatusOK {
			t.Fatalf("%s as %q: %d %s", path, label, w.Code, w.Body.String())
		}
		got := decodeBody[EmitResponse](t, w)
		if got.Outcome != outcome || got.Label != label || got.Target != target {
			t.Errorf("%s as %q: outcome %q, label %q, target %q; want %q, %q, %q", path, label, got.Outcome, got.Label, got.Target, outcome, label, target)
		}
		if got.Source != wantEmit[target] {
			t.Errorf("%s as %q: the emitted %s differs from a direct compile's", path, label, target)
		}
		if !canonEqual(t, got.Verdicts, wantVerdicts) {
			t.Errorf("%s as %q: verdicts differ from a direct compile's", path, label)
		}
	}

	// explain also holds the trail to one final record per loop, in
	// res.Loops order, saying what the loop's verdict says.
	explain := func(path string, s *Server, outcome string) {
		t.Helper()
		w := postJSON(t, s.Handler(), "/v1/explain", ExplainRequest{Source: src, Label: label, Verbose: true})
		if w.Code != http.StatusOK {
			t.Fatalf("%s as %q: %d %s", path, label, w.Code, w.Body.String())
		}
		got := decodeBody[ExplainResponse](t, w)
		if got.Outcome != outcome {
			t.Errorf("%s as %q: outcome %q, want %s", path, label, got.Outcome, outcome)
		}
		got.RequestID, got.Outcome, got.LeaderID = "", "", ""
		if !canonEqual(t, got, wantExplain) {
			t.Errorf("%s as %q differs from a direct compile's explanation", path, label)
		}
		var finals []obsv.Decision
		for _, d := range got.Trail {
			if d.Final {
				finals = append(finals, d)
			}
		}
		if len(finals) != len(res.Loops) {
			t.Fatalf("%s as %q: %d final records for %d loops", path, label, len(finals), len(res.Loops))
		}
		for i, lr := range res.Loops {
			want := "serial"
			if lr.Parallel {
				want = "doall"
			} else if len(lr.RunTimeTest) > 0 {
				want = "lrpd"
			}
			if d := finals[i]; d.Loop != lr.ID || d.Verdict != want {
				t.Errorf("%s as %q: final record %d is %s %s, want %s %s", path, label, i, d.Loop, d.Verdict, lr.ID, want)
			}
		}
	}

	hit := New(Config{Workers: 4})
	compileAs(t, hit.Handler(), "", src, "warm")
	emit("emit_go_hit", hit, "go", "cache_hit")
	emit("emit_fortran_hit", hit, "fortran", "cache_hit")
	explain("explain_hit", hit, "cache_hit")

	// The same explain on a node that fills the entry from its owner.
	pair := newFabricPair(t, 2*time.Second, nil)
	compileAs(t, pair.a.Handler(), "", src, "warm")
	explain("explain_peer_fill", pair.b, "peer_hit")

	// The stored entry's last byte, in its rendering, flipped after the
	// checksum was taken: a compile's view never reads the rendering, an
	// emit's decode must catch it.
	corrupt := New(Config{Workers: 4})
	key := core.KeyOf(src, core.PolarisOptions())
	if _, _, err := corrupt.compiled(context.Background(), corrupt.cache, key, core.PolarisOptions(),
		func(ctx context.Context, o core.Options) (*cacheEntry, error) {
			e, err := compileSource(key, src, nil)(ctx, o)
			if err != nil {
				return nil, err
			}
			b := []byte(e.entry)
			b[len(b)-2] ^= 0x01
			return &cacheEntry{entry: string(b), checksum: e.checksum}, nil
		}); err != nil {
		t.Fatal(err)
	}
	emit("emit_from_corrupted_entry", corrupt, "go", "cold")
	if n := corrupt.obs.Counters()["server_entry_decode_errors"]; n != 1 {
		t.Errorf("emit_from_corrupted_entry as %q: server_entry_decode_errors = %d, want 1", label, n)
	}
}

// TestHitViewPoolRace hits 16 resident keys from 8 goroutines under two
// labels at once. Each response is built on a pooled fabric.View and
// reply that go back to their pools once the response is encoded: a body
// that read scratch another request had been handed in the meantime
// would differ from the reference — a hit answered alone, itself held
// to a direct compile — and under -race the detector sees the sharing
// itself. Every request carries one ID, so an honest body repeats byte
// for byte.
func TestHitViewPoolRace(t *testing.T) {
	s := New(Config{Workers: 8, QueueDepth: 64})
	progs := suite.All()
	labels := []string{"alpha", "beta"}
	type key struct{ prog, label int }
	bodies, want := map[key][]byte{}, map[key][]byte{}
	var w sink
	for p, prog := range progs {
		res, ds := direct(t, prog.Source)
		for l, label := range labels {
			body, err := json.Marshal(CompileRequest{Source: prog.Source, Label: label})
			if err != nil {
				t.Fatal(err)
			}
			bodies[key{p, l}] = body
			post(t, s.Handler(), &w, "/v1/compile", "warm", body)
			post(t, s.Handler(), &w, "/v1/compile", "hit", body)
			want[key{p, l}] = bytes.Clone(w.body.Bytes())

			var hit CompileResponse
			if err := json.Unmarshal(w.body.Bytes(), &hit); err != nil {
				t.Fatal(err)
			}
			ref := CompileResponse{Label: label, Outcome: "cache_hit", ParallelLoops: res.ParallelLoops(),
				Verdicts: verdicts(res.Loops), Report: appendReports(nil, res.Report.Events)}
			for _, d := range ds {
				d.Label = label
				ref.Decisions = append(ref.Decisions, d)
			}
			if got, want := (answer{"hit", label, "cache_hit", hit}).normalized(t), (answer{"direct", label, "cache_hit", ref}).normalized(t); !bytes.Equal(got, want) {
				t.Fatalf("%s as %q: a hit differs from a direct compile:\n got %s\nwant %s", prog.Name, label, got, want)
			}
		}
	}
	const goroutines, rounds = 8, 48
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var w sink
			for i := 0; i < rounds; i++ {
				k := key{(g + 3*i) % len(progs), (g + i) % len(labels)}
				req, err := http.NewRequest("POST", "/v1/compile", bytes.NewReader(bodies[k]))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("X-Request-Id", "hit")
				w.reset()
				s.Handler().ServeHTTP(&w, req)
				if w.code != http.StatusOK || !bytes.Equal(w.body.Bytes(), want[k]) {
					t.Errorf("%s as %q from goroutine %d: %d\n got %s\nwant %s",
						progs[k.prog].Name, labels[k.label], g, w.code, w.body.Bytes(), want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFillVerifyPoolRace runs peer fills and cache hits on one node at
// once. A fill proves the entry it fetched on a pooled fabric.View, whose
// clauses and loop table the re-parsed program points into, and releases
// it; a hit reads a pooled View of an entry the node holds. A View handed
// to one request while another still read it would show as a hit body
// unlike the one answered alone, or a fill that is rejected or answers
// unlike the owner; under -race the detector sees the sharing itself.
func TestFillVerifyPoolRace(t *testing.T) {
	p := newFabricPair(t, 30*time.Second, nil)
	progs := suite.All()
	var w sink
	// Hits: one source of each program owned by b and resident there.
	hits, hitWant := make([][]byte, len(progs)), make([][]byte, len(progs))
	for i, prog := range progs {
		body, err := json.Marshal(CompileRequest{Source: sourceOwnedBy(t, p.fab, "b", prog.Source), Label: "hit"})
		if err != nil {
			t.Fatal(err)
		}
		post(t, p.b.Handler(), &w, "/v1/compile", "warm", body)
		post(t, p.b.Handler(), &w, "/v1/compile", "hit", body)
		hits[i], hitWant[i] = body, bytes.Clone(w.body.Bytes())
	}
	// Fills: sources owned by a, warm there, each asked of b once; the
	// reference is a's own hit.
	const goroutines, rounds = 8, 4
	fills, fillWant := make([][]byte, goroutines*rounds), make([][]byte, goroutines*rounds)
	for i := range fills {
		prog := progs[i%len(progs)]
		src := sourceOwnedBy(t, p.fab, "a", fmt.Sprintf("C fill race %d\n%s", i, prog.Source))
		body, err := json.Marshal(CompileRequest{Source: src, Label: "fill"})
		if err != nil {
			t.Fatal(err)
		}
		post(t, p.a.Handler(), &w, "/v1/compile", "warm", body)
		post(t, p.a.Handler(), &w, "/v1/compile", "owner", body)
		var ref CompileResponse
		if err := json.Unmarshal(w.body.Bytes(), &ref); err != nil {
			t.Fatal(err)
		}
		fills[i], fillWant[i] = body, answer{"owner", "fill", telemetry.OutcomeCacheHit, ref}.normalized(t)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var w sink
			ask := func(body []byte, id string) bool {
				req, err := http.NewRequest("POST", "/v1/compile", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return false
				}
				req.Header.Set("X-Request-Id", id)
				w.reset()
				p.b.Handler().ServeHTTP(&w, req)
				return w.code == http.StatusOK
			}
			for i := 0; i < rounds; i++ {
				f := g*rounds + i
				if !ask(fills[f], "fill") {
					t.Errorf("fill %d from goroutine %d: %d %s", f, g, w.code, w.body.Bytes())
					return
				}
				var got CompileResponse
				if err := json.Unmarshal(w.body.Bytes(), &got); err != nil {
					t.Error(err)
					return
				}
				if got := (answer{"fill", "fill", telemetry.OutcomePeerHit, got}).normalized(t); !bytes.Equal(got, fillWant[f]) {
					t.Errorf("fill %d from goroutine %d differs from the owner's answer:\n got %s\nwant %s", f, g, got, fillWant[f])
					return
				}
				for j := 0; j < 2; j++ {
					k := (g + 3*i + j) % len(progs)
					if !ask(hits[k], "hit") || !bytes.Equal(w.body.Bytes(), hitWant[k]) {
						t.Errorf("%s hit from goroutine %d: %d\n got %s\nwant %s", progs[k].Name, g, w.code, w.body.Bytes(), hitWant[k])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := p.b.obs.Counters()["server_peer_hits"], int64(len(fills)); got != want {
		t.Errorf("server_peer_hits = %d, want %d", got, want)
	}
	if n := p.b.obs.Counters()["server_peer_errors"]; n != 0 {
		t.Errorf("server_peer_errors = %d: a fill was rejected", n)
	}
}

// canonEqual compares two values by their JSON, which is all a client
// sees of them: a nil and an empty list are the same thing there.
func canonEqual(t *testing.T, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}
