package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polaris/internal/core"
	"polaris/internal/fabric"
	"polaris/internal/suite"
)

// handlerSwap lets an httptest server start (fixing its URL) before
// the polaris server that needs that URL exists, and lets a test put
// a misbehaving owner in front of a healthy one.
type handlerSwap struct{ h atomic.Pointer[http.Handler] }

func (hs *handlerSwap) set(h http.Handler) { hs.h.Store(&h) }

func (hs *handlerSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*hs.h.Load()).ServeHTTP(w, r)
}

// fabricPair is a two-node fabric: servers "a" and "b" listening on
// real sockets, each knowing the other as a peer.
type fabricPair struct {
	a, b   *Server
	swapA  *handlerSwap
	fab    *fabric.Fabric // node a's view (ring is identical on both)
	urlA   string
	urlB   string
	closeA func()
	closeB func()
}

func newFabricPair(t *testing.T, fillTimeout time.Duration, faultA fabric.FaultFunc) *fabricPair {
	t.Helper()
	swapA, swapB := &handlerSwap{}, &handlerSwap{}
	tsA := httptest.NewServer(swapA)
	tsB := httptest.NewServer(swapB)
	peers := map[string]string{"a": tsA.URL, "b": tsB.URL}
	fabA, err := fabric.New(fabric.Config{Self: "a", Peers: peers, FillTimeout: fillTimeout})
	if err != nil {
		t.Fatal(err)
	}
	fabB, err := fabric.New(fabric.Config{Self: "b", Peers: peers, FillTimeout: fillTimeout})
	if err != nil {
		t.Fatal(err)
	}
	sa := New(Config{Workers: 4, Fabric: fabA, FabricFault: faultA})
	sb := New(Config{Workers: 4, Fabric: fabB})
	swapA.set(sa.Handler())
	swapB.set(sb.Handler())
	p := &fabricPair{a: sa, b: sb, swapA: swapA, fab: fabA, urlA: tsA.URL, urlB: tsB.URL,
		closeA: tsA.Close, closeB: tsB.Close}
	t.Cleanup(func() { p.closeA(); p.closeB() })
	return p
}

// sourceOwnedBy perturbs a base program with comment lines until its
// route key lands on the wanted ring node.
func sourceOwnedBy(t testing.TB, f *fabric.Fabric, owner, base string) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		src := fmt.Sprintf("C fabric probe %d\n%s", i, base)
		node, _, _ := f.Owner(core.RouteKey(src, core.PolarisOptions()))
		if node == owner {
			return src
		}
	}
	t.Fatalf("no probe source hashed onto node %q", owner)
	return ""
}

// referenceCompile returns the single-node answer for src: the bytes a
// fabric node must reproduce exactly.
func referenceCompile(t *testing.T, src string) CompileResponse {
	t.Helper()
	solo := New(Config{Workers: 2})
	w := postJSON(t, solo.Handler(), "/v1/compile", CompileRequest{Source: src})
	if w.Code != http.StatusOK {
		t.Fatalf("reference compile: %d %s", w.Code, w.Body.String())
	}
	return decodeBody[CompileResponse](t, w)
}

// assertSameAnswer proves the fabric-served response carries
// byte-identical verdicts and decision provenance versus the
// single-node compile (outcome/IDs/cache fields legitimately differ).
func assertSameAnswer(t *testing.T, want CompileResponse, got CompileResponse) {
	t.Helper()
	if !reflect.DeepEqual(want.Verdicts, got.Verdicts) {
		t.Errorf("verdicts differ from single-node compile:\n want %+v\n have %+v", want.Verdicts, got.Verdicts)
	}
	if !reflect.DeepEqual(want.Decisions, got.Decisions) {
		t.Errorf("decision provenance differs from single-node compile (%d vs %d records)",
			len(want.Decisions), len(got.Decisions))
	}
	if want.ParallelLoops != got.ParallelLoops {
		t.Errorf("parallel_loops: want %d, got %d", want.ParallelLoops, got.ParallelLoops)
	}
}

func TestFabricPeerFill(t *testing.T) {
	p := newFabricPair(t, 2*time.Second, nil)
	src := sourceOwnedBy(t, p.fab, "a", saxpySrc)
	want := referenceCompile(t, src)

	// Cold everywhere: B misses, asks owner A, A compiles (tier miss) —
	// B reports peer_miss and still never ran the compile itself.
	w := postJSON(t, p.b.Handler(), "/v1/compile", CompileRequest{Source: src})
	if w.Code != http.StatusOK {
		t.Fatalf("compile on b: %d %s", w.Code, w.Body.String())
	}
	resp := decodeBody[CompileResponse](t, w)
	if resp.Outcome != "peer_miss" {
		t.Errorf("first fabric compile outcome = %q, want peer_miss", resp.Outcome)
	}
	if !resp.Cached {
		t.Error("peer-filled response not marked cached")
	}
	assertSameAnswer(t, want, resp)

	// B's hot tier is now warm: the repeat is an ordinary cache_hit.
	w = postJSON(t, p.b.Handler(), "/v1/compile", CompileRequest{Source: src})
	resp = decodeBody[CompileResponse](t, w)
	if resp.Outcome != "cache_hit" {
		t.Errorf("repeat outcome = %q, want cache_hit", resp.Outcome)
	}
	assertSameAnswer(t, want, resp)

	// Warm owner: compile src2 on A first, then B's miss is a peer_hit.
	src2 := sourceOwnedBy(t, p.fab, "a", tamperLine(saxpySrc))
	want2 := referenceCompile(t, src2)
	w = postJSON(t, p.a.Handler(), "/v1/compile", CompileRequest{Source: src2})
	if out := decodeBody[CompileResponse](t, w).Outcome; out != "cold" {
		t.Fatalf("owner warm-up outcome = %q, want cold", out)
	}
	w = postJSON(t, p.b.Handler(), "/v1/compile", CompileRequest{Source: src2})
	resp = decodeBody[CompileResponse](t, w)
	if resp.Outcome != "peer_hit" {
		t.Errorf("warm-owner outcome = %q, want peer_hit", resp.Outcome)
	}
	assertSameAnswer(t, want2, resp)

	// Counters: A served fills, B recorded one miss and one hit.
	if n := p.a.obs.Counters()["server_fill_requests"]; n < 2 {
		t.Errorf("owner served %d fills, want >= 2", n)
	}
	if n := p.b.obs.Counters()["server_peer_misses"]; n != 1 {
		t.Errorf("server_peer_misses = %d, want 1", n)
	}
	if n := p.b.obs.Counters()["server_peer_hits"]; n != 1 {
		t.Errorf("server_peer_hits = %d, want 1", n)
	}

	// /v1/emit rides the same tier: a third source warm on A emits from
	// B via peer fill, and the generated Go must match the single-node
	// emission byte for byte.
	src3 := sourceOwnedBy(t, p.fab, "a", tamperLine(tamperLine(saxpySrc)))
	postJSON(t, p.a.Handler(), "/v1/compile", CompileRequest{Source: src3})
	solo := New(Config{Workers: 2})
	wantEmit := decodeBody[EmitResponse](t, postJSON(t, solo.Handler(), "/v1/emit", EmitRequest{Source: src3}))
	w = postJSON(t, p.b.Handler(), "/v1/emit", EmitRequest{Source: src3})
	if w.Code != http.StatusOK {
		t.Fatalf("emit on b: %d %s", w.Code, w.Body.String())
	}
	gotEmit := decodeBody[EmitResponse](t, w)
	if gotEmit.Outcome != "peer_hit" {
		t.Errorf("emit outcome = %q, want peer_hit", gotEmit.Outcome)
	}
	if gotEmit.Source != wantEmit.Source {
		t.Error("emitted Go differs between single-node and peer-filled compile")
	}
}

// TestFabricExplainFills: /v1/explain rides the peer tier like compile
// and emit. For a key the owner holds warm, the requester's explain is
// a peer_hit, lands in its hot tier, and explains exactly what the
// owner's explain does, per-pass trail included.
func TestFabricExplainFills(t *testing.T) {
	p := newFabricPair(t, 2*time.Second, nil)
	trfd, _ := suite.ByName("trfd")
	src := sourceOwnedBy(t, p.fab, "a", trfd.Source)
	postJSON(t, p.a.Handler(), "/v1/compile", CompileRequest{Source: src})

	req := ExplainRequest{Source: src, Label: "explained", Verbose: true}
	explain := func(node string, h http.Handler, outcome string) ExplainResponse {
		t.Helper()
		w := postJSON(t, h, "/v1/explain", req)
		if w.Code != http.StatusOK {
			t.Fatalf("explain on %s: %d %s", node, w.Code, w.Body.String())
		}
		resp := decodeBody[ExplainResponse](t, w)
		if resp.Outcome != outcome {
			t.Errorf("explain on %s: outcome %q, want %s", node, resp.Outcome, outcome)
		}
		return resp
	}
	want := explain("the owner", p.a.Handler(), "cache_hit")
	got := explain("the requester", p.b.Handler(), "peer_hit")
	if len(want.Trail) == 0 {
		t.Fatal("the owner's explain carries no trail")
	}
	if !reflect.DeepEqual(want.Lines, got.Lines) {
		t.Errorf("explain lines differ:\n owner     %q\n requester %q", want.Lines, got.Lines)
	}
	if !reflect.DeepEqual(want.Trail, got.Trail) {
		t.Errorf("explain trail differs (%d vs %d records)", len(want.Trail), len(got.Trail))
	}
	if n := p.b.obs.Counters()["server_peer_hits"]; n != 1 {
		t.Errorf("server_peer_hits = %d, want 1", n)
	}
	if hot, main := p.b.hot.Stats(), p.b.cache.Stats(); hot.Entries != 1 || main.Entries != 0 {
		t.Errorf("the requester holds the explained key in hot %+v and main %+v, want hot only", hot, main)
	}
}

// tamperLine prepends a marker comment so successive probes hash to
// different keys.
func tamperLine(src string) string { return "C variant\n" + src }

func TestFabricOwnerEndpoint(t *testing.T) {
	p := newFabricPair(t, time.Second, nil)
	src := sourceOwnedBy(t, p.fab, "a", saxpySrc)

	wa := postJSON(t, p.a.Handler(), fabric.OwnerPath, fabric.OwnerRequest{Source: src})
	oa := decodeBody[fabric.OwnerResponse](t, wa)
	wb := postJSON(t, p.b.Handler(), fabric.OwnerPath, fabric.OwnerRequest{Source: src})
	ob := decodeBody[fabric.OwnerResponse](t, wb)

	if oa.Owner != "a" || !oa.Self {
		t.Errorf("node a reports owner=%q self=%v, want a/true", oa.Owner, oa.Self)
	}
	if ob.Owner != "a" || ob.Self {
		t.Errorf("node b reports owner=%q self=%v, want a/false", ob.Owner, ob.Self)
	}
	if oa.Key != ob.Key {
		t.Errorf("nodes disagree on the route key: %q vs %q", oa.Key, ob.Key)
	}
}

// misreport is a lying owner: it is handed the healthy owner's finished
// answer to one fill and writes something else.
type misreport func(w http.ResponseWriter, r *http.Request, healthy *httptest.ResponseRecorder)

// lyingOwner answers fills by running the healthy handler into a
// recorder and letting lie rewrite what it said; every other route
// passes through.
func lyingOwner(t *testing.T, healthy http.Handler, lie misreport) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != fabric.FillPath {
			healthy.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		healthy.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			t.Errorf("healthy owner answered %d: %s", rec.Code, rec.Body.String())
		}
		lie(w, r, rec)
	})
}

// envelope copies the healthy answer's headers to w, all but those
// named.
func envelope(w http.ResponseWriter, healthy *httptest.ResponseRecorder, drop ...string) {
	for k, v := range healthy.Header() {
		w.Header()[k] = v
	}
	for _, k := range drop {
		w.Header().Del(k)
	}
}

// flushThenPark commits what has been written and holds the connection
// until the requester hangs up.
func flushThenPark(w http.ResponseWriter, r *http.Request) {
	_ = http.NewResponseController(w).Flush()
	<-r.Context().Done()
}

// liveHeap is the heap in use after two collections (what sync.Pool
// holds survives one).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// reship answers with the healthy envelope around another body, its
// checksum and length taken again: an entry the requester can read
// whole and verify, and must still refuse.
func reship(w http.ResponseWriter, healthy *httptest.ResponseRecorder, body []byte) {
	envelope(w, healthy)
	sum := sha256.Sum256(body)
	w.Header().Set("X-Polaris-Fill-Checksum", hex.EncodeToString(sum[:]))
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// TestFabricDeadPeerMatrix kills, hangs, or corrupts the owner at
// every protocol stage, and has it misreport the fill envelope in
// every way ([bounded]): an owner of the build that still wrapped the
// entry in JSON, one that ships a schema-1 JSON entry, an entry without
// its header, a missing checksum, a body shorter than its
// Content-Length, a length over the bound, a large length with nothing
// behind it. The requester always degrades to a local compile with the
// exact single-node answer — outcome cold, one peer_error counted,
// never an error surfaced to the client, never memory committed on a
// peer's say-so — and leaves no goroutine behind. The one answer the
// requester must still accept is an honest entry sent without a
// length.
func TestFabricDeadPeerMatrix(t *testing.T) {
	cases := []struct {
		name  string
		stage fabric.Stage
		fault fabric.Fault
		lie   misreport
		// accepted marks the fill the requester must take: the owner
		// compiled for it, so it reports peer_miss and no peer_error.
		accepted bool
	}{
		{name: "hang-at-accept", stage: fabric.StageAccept, fault: fabric.FaultHang},
		{name: "die-at-accept", stage: fabric.StageAccept, fault: fabric.FaultDie},
		{name: "500-at-accept", stage: fabric.StageAccept, fault: fabric.Fault500},
		{name: "corrupt-entry", stage: fabric.StageEntry, fault: fabric.FaultCorrupt},
		{name: "stale-entry", stage: fabric.StageEntry, fault: fabric.FaultStale},
		// Mid-body: every header is out, Content-Length included, and
		// half the entry follows.
		{name: "die-mid-body", stage: fabric.StageBody, fault: fabric.FaultDie},
		{name: "hang-mid-body", stage: fabric.StageBody, fault: fabric.FaultHang},
		{name: "old-json-envelope", lie: func(w http.ResponseWriter, _ *http.Request, healthy *httptest.ResponseRecorder) {
			// What an owner answered before the entry became the body.
			h := healthy.Header()
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]any{
				"outcome":   h.Get("X-Polaris-Fill-Outcome"),
				"leader_id": h.Get("X-Polaris-Fill-Leader"),
				"checksum":  h.Get("X-Polaris-Fill-Checksum"),
				"entry":     json.RawMessage(healthy.Body.Bytes()),
			})
		}},
		{name: "old-owner-json-entry", lie: func(w http.ResponseWriter, _ *http.Request, healthy *httptest.ResponseRecorder) {
			// An owner of schema 1: the envelope in headers, the entry a
			// JSON document.
			old, err := json.Marshal(map[string]any{"schema": 1, "route_key": "", "rendered": "", "loops": []any{}})
			if err != nil {
				panic(err)
			}
			reship(w, healthy, old)
		}},
		{name: "no-entry-header", lie: func(w http.ResponseWriter, _ *http.Request, healthy *httptest.ResponseRecorder) {
			// The entry from its route key on: the magic and the schema
			// (its first five bytes) left off.
			reship(w, healthy, healthy.Body.Bytes()[5:])
		}},
		{name: "no-checksum-header", lie: func(w http.ResponseWriter, _ *http.Request, healthy *httptest.ResponseRecorder) {
			envelope(w, healthy, "X-Polaris-Fill-Checksum")
			_, _ = w.Write(healthy.Body.Bytes())
		}},
		{name: "length-over-bound", lie: func(w http.ResponseWriter, r *http.Request, healthy *httptest.ResponseRecorder) {
			envelope(w, healthy)
			w.Header().Set("Content-Length", strconv.Itoa(64<<20+1))
			_, _ = w.Write(healthy.Body.Bytes())
			flushThenPark(w, r)
		}},
		{name: "no-length-truncated", lie: func(w http.ResponseWriter, r *http.Request, healthy *httptest.ResponseRecorder) {
			envelope(w, healthy, "Content-Length")
			_, _ = w.Write(healthy.Body.Bytes()[:healthy.Body.Len()/2])
			_ = http.NewResponseController(w).Flush()
			panic(http.ErrAbortHandler)
		}},
		{name: "no-length-honest", accepted: true, lie: func(w http.ResponseWriter, _ *http.Request, healthy *httptest.ResponseRecorder) {
			envelope(w, healthy, "Content-Length")
			body := healthy.Body.Bytes()
			_, _ = w.Write(body[:len(body)/2])
			_ = http.NewResponseController(w).Flush() // chunked from here on
			_, _ = w.Write(body[len(body)/2:])
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			fault := func(st fabric.Stage) fabric.Fault {
				if st == tc.stage {
					return tc.fault
				}
				return fabric.FaultNone
			}
			p := newFabricPair(t, 300*time.Millisecond, fault)
			if tc.lie != nil {
				p.swapA.set(lyingOwner(t, p.a.Handler(), tc.lie))
			}
			src := sourceOwnedBy(t, p.fab, "a", saxpySrc)
			want := referenceCompile(t, src)

			w := postJSON(t, p.b.Handler(), "/v1/compile", CompileRequest{Source: src})
			if w.Code != http.StatusOK {
				t.Fatalf("compile during owner fault: %d %s", w.Code, w.Body.String())
			}
			resp := decodeBody[CompileResponse](t, w)
			wantOutcome, wantErrors := "cold", int64(1)
			if tc.accepted {
				wantOutcome, wantErrors = "peer_miss", 0
			}
			if resp.Outcome != wantOutcome {
				t.Errorf("outcome = %q, want %s", resp.Outcome, wantOutcome)
			}
			assertSameAnswer(t, want, resp)
			if n := p.b.obs.Counters()["server_peer_errors"]; n != wantErrors {
				t.Errorf("server_peer_errors = %d, want %d", n, wantErrors)
			}
			p.closeA()
			p.closeB()
			waitGoroutines(t, baseline)
		})
	}
}

// TestFabricStalledBodyCommitsNothing: an owner that promises the
// largest body Fill accepts and then sends a few bytes and stalls must
// cost the requester what has arrived, not what was promised. The
// requester parks on the read until its fill deadline; while it is
// parked its live heap has grown by far less than the promise, and
// afterwards it compiles locally like every other row of the matrix.
func TestFabricStalledBodyCommitsNothing(t *testing.T) {
	baseline := runtime.NumGoroutine()
	p := newFabricPair(t, 500*time.Millisecond, nil)
	parked := make(chan struct{})
	p.swapA.set(lyingOwner(t, p.a.Handler(), func(w http.ResponseWriter, r *http.Request, healthy *httptest.ResponseRecorder) {
		envelope(w, healthy)
		w.Header().Set("Content-Length", strconv.Itoa(64<<20))
		_, _ = w.Write(healthy.Body.Bytes()[:100])
		_ = http.NewResponseController(w).Flush()
		close(parked)
		<-r.Context().Done()
	}))
	src := sourceOwnedBy(t, p.fab, "a", saxpySrc)
	want := referenceCompile(t, src)

	before := liveHeap()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postJSON(t, p.b.Handler(), "/v1/compile", CompileRequest{Source: src}) }()
	<-parked
	time.Sleep(100 * time.Millisecond) // the requester has the headers and is reading
	if during := liveHeap(); during > before+2<<20 {
		t.Errorf("live heap grew by %d bytes while parked on a 64 MiB promise", during-before)
	}
	w := <-done
	if w.Code != http.StatusOK {
		t.Fatalf("compile during stalled fill: %d %s", w.Code, w.Body.String())
	}
	resp := decodeBody[CompileResponse](t, w)
	if resp.Outcome != "cold" {
		t.Errorf("outcome = %q, want cold (local fallback)", resp.Outcome)
	}
	assertSameAnswer(t, want, resp)
	if n := p.b.obs.Counters()["server_peer_errors"]; n != 1 {
		t.Errorf("server_peer_errors = %d, want 1", n)
	}
	p.closeA()
	p.closeB()
	waitGoroutines(t, baseline)
}

// TestFabricStalledRequestCommitsNothing is the owner's side of the
// same promise: a requester that declares the largest source the owner
// accepts and then sends a few bytes and stalls must cost the owner
// what has arrived. The owner reads a fill request before admission
// takes a slot, so nothing else bounds how many such requests it holds.
func TestFabricStalledRequestCommitsNothing(t *testing.T) {
	baseline := runtime.NumGoroutine()
	p := newFabricPair(t, time.Second, nil)
	const promised = 1 << 20 // the owner's default MaxSourceBytes
	before := liveHeap()
	conn, err := net.Dial("tcp", strings.TrimPrefix(p.urlA, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: a\r\n%s: 1\r\nX-Polaris-Fill-Schema: %d\r\n"+
		"Content-Type: text/plain\r\nContent-Length: %d\r\n\r\n      PROGRAM P\n",
		fabric.FillPath, fabric.FillHeader, fabric.EntrySchema, promised)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // the owner has the headers and is reading
	if during := liveHeap(); during > before+promised/2 {
		t.Errorf("the owner's live heap grew by %d bytes while a requester stalled on a %d-byte promise", during-before, promised)
	}
	if n := p.a.obs.Counters()["server_fill_requests"]; n != 1 {
		t.Errorf("server_fill_requests = %d, want 1 (the stalled request in flight)", n)
	}
	conn.Close()
	p.closeA()
	p.closeB()
	if st := p.a.cache.Stats(); st.Misses != 0 || st.Entries != 0 {
		t.Errorf("the owner compiled a source it never received whole: cache %+v", st)
	}
	waitGoroutines(t, baseline)
}

// TestFabricDeadPeerNoPoisonedWaiters coalesces many concurrent
// requests onto one singleflight leader whose peer fill hangs: every
// waiter must get the correct local-fallback answer — the fill's
// deadline belongs to the fill, never to the leader's context.
func TestFabricDeadPeerNoPoisonedWaiters(t *testing.T) {
	fault := func(st fabric.Stage) fabric.Fault {
		if st == fabric.StageAccept {
			return fabric.FaultHang
		}
		return fabric.FaultNone
	}
	p := newFabricPair(t, 300*time.Millisecond, fault)
	src := sourceOwnedBy(t, p.fab, "a", saxpySrc)
	want := referenceCompile(t, src)

	const n = 8
	var wg sync.WaitGroup
	resps := make([]CompileResponse, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := postJSON(t, p.b.Handler(), "/v1/compile", CompileRequest{Source: src})
			codes[i] = w.Code
			if w.Code == http.StatusOK {
				resps[i] = decodeBody[CompileResponse](t, w)
			}
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		switch resps[i].Outcome {
		case "cold", "coalesced", "cache_hit":
		default:
			t.Errorf("request %d: outcome %q", i, resps[i].Outcome)
		}
		assertSameAnswer(t, want, resps[i])
	}
}

// TestFabricNewOwnerOldRequester is the other direction of skew (the
// matrix's old-json-envelope and old-owner-json-entry rows are old
// owners answering a new requester). A requester of schema 1 posts a
// JSON document and declares no entry schema; an owner that compiled
// that document as Fortran would answer nonsense for a key nobody
// asked for, so it answers 400 before reading the body, and the old
// requester compiles locally.
func TestFabricNewOwnerOldRequester(t *testing.T) {
	p := newFabricPair(t, time.Second, nil)
	src := sourceOwnedBy(t, p.fab, "a", saxpySrc)
	w := postJSON(t, p.a.Handler(), fabric.FillPath, map[string]any{"source": src, "timeout_ms": 1000})
	if w.Code != http.StatusBadRequest {
		t.Errorf("an old requester's fill: %d %s, want 400", w.Code, w.Body.String())
	}
	if n := p.a.obs.Counters()["server_fill_requests"]; n != 1 {
		t.Errorf("server_fill_requests = %d, want 1", n)
	}
	if st := p.a.cache.Stats(); st.Misses != 0 || st.Entries != 0 {
		t.Errorf("the owner compiled for an old requester: cache %+v", st)
	}
}
