package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"testing"

	"polaris/internal/fabric"
	"polaris/internal/fuzzgen"
	"polaris/internal/store"
	"polaris/internal/suite"
)

// raceDetector is set by race_test.go.
var raceDetector bool

// sink is a ResponseWriter over one buffer it keeps between responses,
// so a byte budget measures the handler and not a recorder's growth.
type sink struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (s *sink) Header() http.Header         { return s.header }
func (s *sink) WriteHeader(code int)        { s.code = code }
func (s *sink) Write(b []byte) (int, error) { return s.body.Write(b) }

// WriteString is what a connection offers io.WriteString: a string
// body goes in without a copy to bytes first.
func (s *sink) WriteString(str string) (int, error) { return s.body.WriteString(str) }

func (s *sink) reset() {
	s.header, s.code = http.Header{}, http.StatusOK
	s.body.Reset()
}

// post drives one JSON request through h under the given request ID
// and requires a 200.
func post(t *testing.T, h http.Handler, w *sink, path, id string, body []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	w.reset()
	h.ServeHTTP(w, req)
	if w.code != http.StatusOK {
		t.Fatalf("%s as %s: %d %s", path, id, w.code, w.body.String())
	}
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func trfdBody(t *testing.T) []byte {
	t.Helper()
	p, ok := suite.ByName("trfd")
	if !ok {
		t.Fatal("trfd missing from suite")
	}
	body, err := json.Marshal(CompileRequest{Source: p.Source})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestHitsDoNotGrowEntry holds a resident entry to the size it was
// booked at, however often it is hit. Every hit used to add its unique
// internal label to the entry's emitted-label set, up to 1024 of them:
// tens of KB of strings and map buckets the cache never booked (the
// class of the unit memo's source-pinning under-count). An entry is
// bytes, and each hit decodes its own view of them into pooled scratch.
func TestHitsDoNotGrowEntry(t *testing.T) {
	s := New(Config{})
	body := trfdBody(t)
	var w sink
	for i := 0; i < 32; i++ { // the compile, then hits until every lazily built table exists
		post(t, s.Handler(), &w, "/v1/compile", fmt.Sprintf("warm-%d", i), body)
	}
	before := liveHeap()
	for i := 0; i < 5000; i++ {
		post(t, s.Handler(), &w, "/v1/compile", fmt.Sprintf("hit-%d", i), body)
	}
	after := liveHeap()
	const slack = 16 << 10 // the parent grows by 55 KB here
	t.Logf("live heap %d -> %d bytes over 5000 hits", before, after)
	if after > before+slack {
		t.Errorf("5000 hits on one resident entry grew the live heap by %d bytes (slack %d)", after-before, slack)
	}
	if live, booked := s.cache.LiveBytes(), s.cache.Stats().Bytes; live != booked {
		t.Errorf("cache holds %d bytes but books %d", live, booked)
	}
	if st := s.cache.Stats(); st.Entries != 1 || st.Misses != 1 {
		t.Errorf("cache stats %+v: want one entry, compiled once", st)
	}
}

// TestHitAllocBudget holds a cache hit on TRFD — request decode,
// lookup, the entry's view under the request's label, JSON encode, with
// the httptest request and recorder around it — to its allocation. The
// budget is the measured figure plus a tenth.
func TestHitAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("byte budgets do not hold under the race detector")
	}
	s := New(Config{})
	body := trfdBody(t)
	var w sink
	for i := 0; i < 50; i++ {
		post(t, s.Handler(), &w, "/v1/compile", "warm", body)
	}
	const hits = 500
	best := uint64(1 << 62)
	for round := 0; round < 3; round++ {
		before := totalAlloc()
		for i := 0; i < hits; i++ {
			post(t, s.Handler(), &w, "/v1/compile", "hit", body)
		}
		if d := (totalAlloc() - before) / hits; d < best {
			best = d
		}
	}
	t.Logf("trfd: %d bytes per hit", best)
	const budget = 8745 // 7950 measured plus a tenth; 9524 with verdict and report lists made per hit, 31160 with a per-request observer and a 4 KiB sniffing reader
	if best > budget {
		t.Errorf("a cache hit allocates %d bytes; budget %d", best, budget)
	}
}

// handlerTransport is an in-memory peer hop: the requester's fill goes
// straight into the owner's handler. With book set it books what the
// owner allocated and shipped, so a test can state each side's share
// (reading the allocation stops the world twice a fill, which a timing
// must not pay). One fill at a time: the response body reads the
// transport's own buffer.
type handlerTransport struct {
	owner      http.Handler
	book       bool
	w          sink
	ownerAlloc uint64
	entryBytes uint64
}

func (ht *handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	var before uint64
	if ht.book {
		before = totalAlloc()
	}
	ht.w.reset()
	ht.owner.ServeHTTP(&ht.w, r)
	if ht.book {
		ht.ownerAlloc += totalAlloc() - before
	}
	ht.entryBytes += uint64(ht.w.body.Len())
	n, err := strconv.ParseInt(ht.w.header.Get("Content-Length"), 10, 64)
	if err != nil {
		n = -1
	}
	return &http.Response{
		StatusCode: ht.w.code, Header: ht.w.header, ContentLength: n,
		Body: io.NopCloser(bytes.NewReader(ht.w.body.Bytes())), Request: r,
	}, nil
}

// handlerPair is a two-node fabric in one process, both nodes sized by
// cfg: owner "a", and requester "b" whose fills go straight into the
// owner's handler through ht. ring is node a's view of the ring, which
// is node b's too.
func handlerPair(t testing.TB, cfg Config) (owner, requester *Server, ht *handlerTransport, ring *fabric.Fabric) {
	t.Helper()
	peers := map[string]string{"a": "http://a.invalid", "b": "http://b.invalid"}
	ring, err := fabric.New(fabric.Config{Self: "a", Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	ownerCfg := cfg
	ownerCfg.Fabric = ring
	owner = New(ownerCfg)
	ht = &handlerTransport{owner: owner.Handler()}
	fabB, err := fabric.New(fabric.Config{Self: "b", Peers: peers, Transport: ht})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fabric = fabB
	return owner, New(cfg), ht, ring
}

// compileBodies marshals one CompileRequest per source.
func compileBodies(t testing.TB, srcs []string) [][]byte {
	t.Helper()
	bodies := make([][]byte, len(srcs))
	for i, src := range srcs {
		body, err := json.Marshal(CompileRequest{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = body
	}
	return bodies
}

// TestCacheBooksWhatItHolds holds an entry's booking — its two strings
// and entryOverhead — to the live heap a resident entry costs, so
// -cache-bytes bounds what it says: suite variants are compiled into one
// node's main cache, filled from a warm owner into another's hot tier,
// and mega10k is compiled alone, and on each path what the tier holds is
// within [0.8, 1.25]× what it booked. What a tier holds is the live heap
// its entries free when the tier is dropped, two measurements with
// nothing run between them: a compile can itself leave the heap a few
// hundred KB smaller than it found it, which is more than a hundred
// entries' worth of error in a before-and-after of the compiles.
func TestCacheBooksWhatItHolds(t *testing.T) {
	if raceDetector {
		t.Skip("live-heap figures do not hold under the race detector")
	}
	const perProgram = 16
	variants := func(ring *fabric.Fabric, tag string) []string {
		var srcs []string
		for i := 0; i < perProgram; i++ {
			for _, p := range suite.All() {
				src := fmt.Sprintf("C %s %d\n%s", tag, i, p.Source)
				if ring != nil {
					src = sourceOwnedBy(t, ring, "a", src)
				}
				srcs = append(srcs, src)
			}
		}
		return srcs
	}
	n := perProgram * len(suite.All())
	// Large enough that neither tier evicts: the hot tier holds n.
	cfg := Config{CacheEntries: 8 * n, CacheBytes: 8 << 30, MaxSourceBytes: 4 << 20}
	// hold serves bodies on h into the tier *st, then drops the tier and
	// compares the live heap that freed with what the tier had booked.
	hold := func(path string, h http.Handler, st **tier, bodies [][]byte) {
		t.Helper()
		var w sink
		for i, body := range bodies {
			post(t, h, &w, "/v1/compile", fmt.Sprintf("held-%d", i), body)
		}
		stats := (*st).Stats()
		if stats.Entries != len(bodies) {
			t.Fatalf("%s: the tier holds %d entries of %d", path, stats.Entries, len(bodies))
		}
		held := liveHeap()
		*st = store.New[cacheKey, *cacheEntry](store.Limits{})
		live := float64(held-liveHeap()) / float64(len(bodies))
		booked := float64(stats.Bytes) / float64(len(bodies))
		t.Logf("%s: %.0f bytes live, %.0f booked per entry (%.2f×)", path, live, booked, live/booked)
		if r := live / booked; r < 0.8 || r > 1.25 {
			t.Errorf("%s: an entry holds %.0f bytes of live heap and is booked at %.0f (%.2f×, want 0.8–1.25)", path, live, booked, r)
		}
	}

	solo := New(cfg)
	hold("compile", solo.Handler(), &solo.cache, compileBodies(t, variants(nil, "booked")))
	mega := fuzzgen.MegaCorpus()[0]
	hold(mega.Name, solo.Handler(), &solo.cache, compileBodies(t, []string{mega.Generate().Source}))

	owner, requester, _, ring := handlerPair(t, cfg)
	bodies := compileBodies(t, variants(ring, "filled"))
	var w sink
	for i, body := range bodies {
		post(t, owner.Handler(), &w, "/v1/compile", fmt.Sprintf("owner-%d", i), body)
	}
	hold("fill", requester.Handler(), &requester.hot, bodies)
	if st := requester.cache.Stats(); st.Entries != 0 {
		t.Errorf("the requester's main cache holds %d peer-owned entries", st.Entries)
	}
}

// TestFillAllocBudget holds a peer fill of a TRFD variant the owner
// has warm to its allocation on each side of the hop, in bytes per
// fill: the owner's request read and lookup, then the stored entry
// written as it is; the requester's read, checksum, decode, re-parse,
// render-roundtrip proof, install and response. Bytes per fill, not per
// entry byte: a fatter entry must not buy a looser budget. Each budget
// is the measured figure plus a tenth.
func TestFillAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("byte budgets do not hold under the race detector")
	}
	owner, requester, ht, fabA := handlerPair(t, Config{})
	ht.book = true

	p, _ := suite.ByName("trfd")
	var w sink
	const fills = 64
	bodies := make([][]byte, 0, fills)
	for i := 0; len(bodies) < fills; i++ {
		src := sourceOwnedBy(t, fabA, "a", fmt.Sprintf("C fill budget %d\n%s", i, p.Source))
		body, err := json.Marshal(CompileRequest{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		post(t, owner.Handler(), &w, "/v1/compile", "warm", body)
		bodies = append(bodies, body)
	}
	// The first few fills build the lazily built tables on both sides.
	warm, measured := bodies[:8], bodies[8:]
	for _, body := range warm {
		post(t, requester.Handler(), &w, "/v1/compile", "fill", body)
	}
	ht.ownerAlloc, ht.entryBytes = 0, 0
	before := totalAlloc()
	for _, body := range measured {
		post(t, requester.Handler(), &w, "/v1/compile", "fill", body)
	}
	total := totalAlloc() - before
	if got, want := requester.obs.Counters()["server_peer_hits"], int64(fills); got != want {
		t.Fatalf("server_peer_hits = %d, want %d: the requests were not peer fills", got, want)
	}
	n := uint64(len(measured))
	ownerPer, requesterPer := ht.ownerAlloc/n, (total-ht.ownerAlloc)/n
	t.Logf("trfd: entry %d bytes; owner %d, requester %d bytes allocated per fill",
		ht.entryBytes/n, ownerPer, requesterPer)
	// Measured 4 500 and 48 000 bytes (a 5 795-byte entry), plus a
	// tenth. A requester that read the body into bytes, copied it to a
	// string and proved it with a full decode spent 70 000; an owner
	// that rendered and encoded the entry for each fill spent 19 766; the
	// JSON entry's sides were 53.5 KB and 128.8 KB.
	const ownerBudget, requesterBudget = 4950, 52800
	if ownerPer > ownerBudget {
		t.Errorf("the owner allocates %d bytes per fill; budget %d", ownerPer, ownerBudget)
	}
	if requesterPer > requesterBudget {
		t.Errorf("the requester allocates %d bytes per fill; budget %d", requesterPer, requesterBudget)
	}
}
