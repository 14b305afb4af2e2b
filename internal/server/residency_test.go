package server

import (
	"bytes"
	"fmt"
	"testing"

	"polaris/internal/fuzzgen"
	"polaris/internal/suite"
)

// TestFleetHoldsEachEntryOnce serves a requester three times its hot
// tier's capacity of keys a peer owns. Each entry then lives once, at
// its owner: the requester keeps the newest of them in its hot tier and
// none in its main cache, and its live heap stops growing once the hot
// tier is full. A repeat of the newest key is a local hit and a repeat
// of the oldest, long evicted, is a fill again; both answer what a
// single node would.
func TestFleetHoldsEachEntryOnce(t *testing.T) {
	const hotCap = 16 // CacheEntries/8
	owner, requester, _, ring := handlerPair(t, Config{CacheEntries: 8 * hotCap})
	progs := suite.All()
	srcs := make([]string, 3*hotCap)
	for i := range srcs {
		srcs[i] = sourceOwnedBy(t, ring, "a", fmt.Sprintf("C resident %d\n%s", i, progs[i%len(progs)].Source))
	}
	oldest, newest := srcs[0], srcs[len(srcs)-1]
	reference := func(src string) []byte {
		return answer{"reference", "prog", "cold", referenceCompile(t, src)}.normalized(t)
	}
	wantOldest, wantNewest := reference(oldest), reference(newest)

	for _, src := range srcs {
		compileAs(t, owner.Handler(), "", src, "prog")
	}
	heapAt := func() int64 { return int64(liveHeap()) }
	start := heapAt()
	var full int64
	for i, src := range srcs {
		if out := compileAs(t, requester.Handler(), "", src, "prog").Outcome; out != "peer_hit" {
			t.Fatalf("key %d on the requester: outcome %q, want peer_hit", i, out)
		}
		if i == hotCap-1 {
			full = heapAt()
		}
	}
	end := heapAt()

	hot, main := requester.hot.Stats(), requester.cache.Stats()
	if hot.Entries != hotCap || hot.Misses != int64(len(srcs)) || hot.Evictions != int64(len(srcs)-hotCap) {
		t.Errorf("the requester's hot tier: %+v, want %d entries of %d fills", hot, hotCap, len(srcs))
	}
	if main.Entries != 0 || main.Misses != 0 {
		t.Errorf("the requester's main cache holds peer-owned keys: %+v", main)
	}
	if st := owner.cache.Stats(); st.Entries != len(srcs) || st.Misses != int64(len(srcs)) {
		t.Errorf("the owner's main cache: %+v, want every one of %d keys, each compiled once", st, len(srcs))
	}
	if st := owner.hot.Stats(); st.Entries != 0 || st.Misses != 0 {
		t.Errorf("the owner's hot tier holds its own keys: %+v", st)
	}
	// Holding every key would have grown the heap by two hot tiers' worth
	// after the first one filled.
	t.Logf("requester live heap: +%d bytes for the first %d keys, %+d for the next %d; hot tier books %d",
		full-start, hotCap, end-full, len(srcs)-hotCap, hot.Bytes)
	if end-full > hot.Bytes/2 {
		t.Errorf("the requester's live heap grew by %d bytes after its hot tier filled (it books %d): it holds more than the tier",
			end-full, hot.Bytes)
	}

	for _, c := range []struct {
		path, src, outcome string
		want               []byte
	}{
		{"newest repeat", newest, "cache_hit", wantNewest},
		{"oldest repeat", oldest, "peer_hit", wantOldest},
	} {
		got := answer{c.path, "prog", c.outcome, compileAs(t, requester.Handler(), "", c.src, "prog")}.normalized(t)
		if !bytes.Equal(got, c.want) {
			t.Errorf("%s differs from the single-node compile:\n got %s\nwant %s", c.path, got, c.want)
		}
	}
	if st := requester.hot.Stats(); st.Entries != hotCap {
		t.Errorf("after the repeats the hot tier holds %d entries, want %d", st.Entries, hotCap)
	}
}

// TestMegaEntryHeldHot: the largest program of the scaling corpus stays
// in a requester's hot tier under the default bounds. Its entry, about
// 2.5 MB of bytes, fits the tier's 8 MiB, so a repeat on the requester
// is a local hit, not a second fill. Booked as the objects it was
// decoded into, about 17 MB, it never could be held hot.
func TestMegaEntryHeldHot(t *testing.T) {
	owner, requester, _, ring := handlerPair(t, Config{MaxSourceBytes: 4 << 20})
	mega := fuzzgen.MegaCorpus()[1]
	src := sourceOwnedBy(t, ring, "a", mega.Generate().Source)
	if out := compileAs(t, owner.Handler(), "", src, "prog").Outcome; out != "cold" {
		t.Fatalf("%s on the owner: outcome %q, want cold", mega.Name, out)
	}
	for i, want := range []string{"peer_hit", "cache_hit"} {
		if out := compileAs(t, requester.Handler(), "", src, "prog").Outcome; out != want {
			t.Errorf("%s on the requester, request %d: outcome %q, want %s", mega.Name, i, out, want)
		}
	}
	hot := requester.hot.Stats()
	t.Logf("%s: the requester's hot tier holds %d entries, %d bytes booked, of %d", mega.Name, hot.Entries, hot.Bytes, requester.cfg.CacheBytes/8)
	if hot.Entries != 1 || hot.Misses != 1 {
		t.Errorf("the requester's hot tier: %+v, want the one entry, filled once", hot)
	}
	if n := requester.obs.Counters()["server_peer_hits"]; n != 1 {
		t.Errorf("server_peer_hits = %d, want 1", n)
	}
}
