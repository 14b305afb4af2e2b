package suite

import (
	"container/list"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sync"

	"polaris/internal/core"
	"polaris/internal/digest"
	"polaris/internal/ir"
	"polaris/internal/obsv"
	"polaris/internal/pfa"
	"polaris/internal/telemetry"
)

// CacheOutcome reports how one lookup was satisfied, for request
// tracing: Kind is telemetry.OutcomeCold when this caller ran the
// compile (it was the singleflight leader), telemetry.OutcomeCacheHit
// when a completed entry answered, and telemetry.OutcomeCoalesced when
// the caller parked on another request's in-flight compilation.
// LeaderID names the request that did (or is doing) the work — the
// telemetry request ID carried by the leader's context — so a
// coalesced response can point at the request whose compile it rode.
// Empty when the leader's context carried no request ID (library
// callers outside the server).
//
// Decisions (compiled lookups only) is the entry's decision provenance:
// the list the leader's compile recorded, under the leader's label. The
// entry owns it and hands the same backing array to every caller, cold,
// hit and coalesced alike, so nobody may write it — a caller that wants
// its own label takes obsv.Relabel's copy.
type CacheOutcome struct {
	Kind      string
	LeaderID  string
	Decisions []obsv.Decision
}

// Key identifies one compilation: the content hash of the Fortran
// source plus a fingerprint of the technique configuration. A caller
// that needs the identity for more than the lookup (the compile
// service routes on it and reports the source hash) computes it once
// with KeyOf and passes it down; hashing is the only cost and it is
// paid per source, not per use.
type Key struct {
	src  [32]byte
	opts string
}

// KeyOf computes the cache identity of compiling src under opt.
func KeyOf(src string, opt core.Options) Key {
	return Key{src: digest.Sum256(src), opts: optKey(opt)}
}

// String renders the key as the consistent-hash routing key of the
// distributed compile fabric: every node hashes an incoming request to
// the same owner because every node derives the key from the same
// bytes.
func (k Key) String() string { return k.SourceHash() + "|" + k.opts }

// SourceHash is the SHA-256 of the source alone, in hexadecimal.
func (k Key) SourceHash() string { return hex.EncodeToString(k.src[:]) }

// optKey fingerprints the technique-selection fields of core.Options.
// Instrumentation and scheduling fields (Stats, Trace, TraceLabel,
// Observer, UnitWorkers) are deliberately excluded: they do not change
// the compiled program.
// TestOptKeyCoversOptions enforces that every future technique field
// is added here.
func optKey(o core.Options) string {
	return fmt.Sprintf("%t%t%t%t%t%t%t%t%t%t%t%t",
		o.Inline, o.Induction, o.SimpleInduction, o.Reductions,
		o.HistogramReduction, o.ArrayPrivatization, o.RangeTest,
		o.Permutation, o.LRPD, o.StrengthReduction, o.Normalize,
		o.InterprocConstants)
}

// RouteKey is KeyOf(src, opt).String().
func RouteKey(src string, opt core.Options) string { return KeyOf(src, opt).String() }

// Fill returns a compile function that installs an already-materialized
// compilation — typically one decoded from a peer node's cache — as if
// it had been compiled by this process. The result is returned as-is,
// and the captured decision provenance is replayed into the compiling
// observer under the installing request's label, so the singleflight
// leader's capture records it and the entry hands it out exactly as
// for a locally compiled entry.
func Fill(res *core.Result, decisions []obsv.Decision) func(context.Context, core.Options) (*core.Result, error) {
	return func(_ context.Context, opt core.Options) (*core.Result, error) {
		opt.Observer.ReplayDecisions(decisions, opt.TraceLabel)
		return res, nil
	}
}

// maxReplayLabels bounds the per-entry emitted-label set. The set
// exists to keep repeat hits under one label from duplicating
// provenance in a shared trace (Figure 6 runs one compilation from
// every worker), and only lookups that bring an observer reach it: the
// compile service brings none and reads CacheOutcome.Decisions, so a
// hot entry there stays the size it was booked at. Past the bound new
// labels are replayed without being recorded; the dedup guarantee
// holds for the first maxReplayLabels distinct labels per entry, which
// covers every shared-observer use.
const maxReplayLabels = 1024

// compiledEntry is one singleflight slot: the leader closes done after
// filling res/err; waiters block on done (or their own context). The
// captured per-loop Decision provenance is kept so every lookup gets
// it (CacheOutcome.Decisions) and a hit that brings an observer has it
// replayed under its own label — without that, every hitting
// compilation would silently lose its decision records from traces and
// `polaris explain`. res, err, decisions, and size are written only by
// the leader before done closes and are immutable afterwards, so a
// goroutine holding the entry may read them even after the entry has
// been evicted from the cache maps.
type compiledEntry struct {
	done      chan struct{}
	res       *core.Result
	err       error
	decisions []obsv.Decision
	size      int64
	elem      *list.Element // LRU slot; nil until completed successfully
	// leaderID is the telemetry request ID of the leader's context,
	// written while the creating goroutine holds c.mu (before the entry
	// is visible to anyone else) and immutable afterwards. Waiters and
	// hits report it so every response can name the request that did
	// the compile.
	leaderID string

	mu      sync.Mutex
	emitted map[string]bool // labels already replayed to an observer; nil until one is
}

// baselineEntry is the PFA singleflight slot.
type baselineEntry struct {
	done     chan struct{}
	res      *pfa.Result
	err      error
	size     int64
	elem     *list.Element
	leaderID string // see compiledEntry.leaderID
}

// serialEntry is the serial-execution singleflight slot.
type serialEntry struct {
	done     chan struct{}
	cycles   int64
	sum      float64
	err      error
	size     int64
	elem     *list.Element
	leaderID string // see compiledEntry.leaderID
}

// CacheLimits bounds a Cache. Zero fields mean unlimited; the suite
// Runner uses an unlimited cache (16 programs), while polaris-serve
// caps both so memory stays flat under millions of distinct sources.
type CacheLimits struct {
	// MaxEntries caps the number of completed entries across all three
	// tables (compiled, baseline, serial).
	MaxEntries int
	// MaxBytes caps the summed size estimate of completed entries.
	MaxBytes int64
}

// CacheStats is a point-in-time snapshot of a Cache.
type CacheStats struct {
	// Entries and Bytes count completed (evictable) entries and their
	// summed size estimate; in-flight compilations are excluded.
	Entries int
	Bytes   int64
	// Hits counts lookups that found an entry (including joins on an
	// in-flight leader); Misses counts lookups that became the leader.
	Hits   int64
	Misses int64
	// Evictions counts entries dropped by the LRU bound; Retries counts
	// waiter retries after a leader failed with a context error.
	Evictions int64
	Retries   int64
}

// lruItem is one completed entry on the eviction list: which table it
// lives in, its key, and its size. In-flight entries are never on the
// list, so an entry with concurrent waiters is never evicted before
// its leader completes (waiters hold the entry pointer and remain
// correct even after eviction; see compiledEntry).
type lruItem struct {
	kind byte // 'c' compiled, 'b' baseline, 's' serial
	ckey Key
	hkey [32]byte
	size int64
}

// Cache memoizes compilations (Polaris configurations and the PFA
// baseline) and serial executions, keyed by source content hash. Each
// key is computed exactly once (singleflight): concurrent misses elect
// one leader and the rest wait, so a shared trace writer sees one span
// set and one decision set per compilation. Waiters honor their own
// context while waiting, and a waiter whose leader fails with the
// *leader's* context error retries instead of inheriting it — a live
// request never fails with someone else's context.Canceled.
//
// With CacheLimits set, completed entries form a bounded LRU with
// byte-size accounting: inserting past the bound evicts the least
// recently used completed entries first. It is safe for concurrent
// use. Cached compiled programs are shared; executions receive a fresh
// Clone so concurrent interpreter runs never touch the same IR.
type Cache struct {
	lim CacheLimits

	mu       sync.Mutex
	compiled map[Key]*compiledEntry
	baseline map[[32]byte]*baselineEntry
	serial   map[[32]byte]*serialEntry
	lru      *list.List // of *lruItem, front = least recently used
	bytes    int64
	stats    CacheStats
}

// NewCache returns an empty cache bounded by lim.
func NewCache(lim CacheLimits) *Cache {
	return &Cache{
		lim:      lim,
		compiled: map[Key]*compiledEntry{},
		baseline: map[[32]byte]*baselineEntry{},
		serial:   map[[32]byte]*serialEntry{},
		lru:      list.New(),
	}
}

func newCompileCache() *Cache { return NewCache(CacheLimits{}) }

// Stats snapshots the cache gauges and counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	s.Bytes = c.bytes
	return s
}

// LiveBytes recomputes the byte total from scratch by walking the LRU
// list, independent of the incremental counter behind Stats().Bytes.
// Tests compare the two to prove the accounting stays flat (add on
// insert == subtract on evict, no drift).
func (c *Cache) LiveBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for e := c.lru.Front(); e != nil; e = e.Next() {
		sum += e.Value.(*lruItem).size
	}
	return sum
}

// isCtxErr reports whether err is a context cancellation or deadline
// error (possibly wrapped).
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// insertLocked registers a completed entry on the LRU list, accounts
// its bytes, and evicts past the bound. Called with c.mu held; returns
// the entry's list element.
func (c *Cache) insertLocked(it *lruItem) *list.Element {
	elem := c.lru.PushBack(it)
	c.bytes += it.size
	c.evictLocked()
	return elem
}

// touchLocked moves a completed entry to the most-recent end.
func (c *Cache) touchLocked(elem *list.Element) {
	if elem != nil {
		c.lru.MoveToBack(elem)
	}
}

// evictLocked drops least-recently-used completed entries until the
// cache is within its limits. Only completed entries are on the list,
// so an in-flight singleflight slot (with waiters attached) is never
// split; evicting the entry a waiter already holds is harmless because
// completed entries are immutable (replay state is entry-local).
func (c *Cache) evictLocked() {
	over := func() bool {
		if c.lim.MaxEntries > 0 && c.lru.Len() > c.lim.MaxEntries {
			return true
		}
		if c.lim.MaxBytes > 0 && c.bytes > c.lim.MaxBytes {
			return true
		}
		return false
	}
	for over() {
		front := c.lru.Front()
		if front == nil {
			return
		}
		it := front.Value.(*lruItem)
		c.lru.Remove(front)
		c.bytes -= it.size
		c.stats.Evictions++
		switch it.kind {
		case 'c':
			if e, ok := c.compiled[it.ckey]; ok && e.elem == front {
				delete(c.compiled, it.ckey)
			}
		case 'b':
			if e, ok := c.baseline[it.hkey]; ok && e.elem == front {
				delete(c.baseline, it.hkey)
			}
		case 's':
			if e, ok := c.serial[it.hkey]; ok && e.elem == front {
				delete(c.serial, it.hkey)
			}
		}
	}
}

// compiledSize estimates the resident size of a compiled entry: the
// retained IR scales with the source, plus the captured decision
// records. The estimate only needs to be deterministic per entry —
// it is added on insert and subtracted on evict, keeping the byte
// accounting exact for the entries actually held.
func compiledSize(p Program, decisions []obsv.Decision) int64 {
	s := int64(len(p.Source))*2 + 1024
	for _, d := range decisions {
		s += 128 + int64(len(d.Detail)+len(d.Technique)+len(d.Blocker)+len(d.Loop))
		for _, ev := range d.Evidence {
			s += int64(len(ev))
		}
	}
	return s
}

// Compile returns the cached compilation of p under opt, compiling on
// miss; see CompileOutcome.
func (c *Cache) Compile(ctx context.Context, p Program, opt core.Options, compileFn func(context.Context, core.Options) (*core.Result, error)) (*core.Result, error) {
	res, _, err := c.CompileOutcome(ctx, KeyOf(p.Source, opt), p, opt, compileFn)
	return res, err
}

// CompileOutcome returns the cached compilation of p under opt,
// compiling on miss, along with how the lookup was satisfied (cold /
// cache_hit / coalesced, the leader's request ID, and the entry's
// decision provenance — see CacheOutcome). key must be
// KeyOf(p.Source, opt). Exactly one compilation happens per key; the
// leader threads a private capture observer through the compile and
// the entry takes the list it recorded. A lookup that brings an
// observer (the suite Runner's shared one) additionally has those
// decisions replayed to it, relabeled, once per not-yet-seen label; the
// compile service brings none and reads the list from the outcome.
// Failed compiles are not cached (the key is released for retry, e.g.
// after a context cancellation).
//
// Waiters select on their own ctx while the leader runs; a canceled
// waiter returns its own ctx.Err() promptly. When the leader fails
// with a context error but the waiter's context is still live, the
// waiter retries (typically becoming the new leader, and reporting the
// outcome of that final attempt) instead of surfacing the dead
// leader's error.
func (c *Cache) CompileOutcome(ctx context.Context, key Key, p Program, opt core.Options, compileFn func(context.Context, core.Options) (*core.Result, error)) (*core.Result, CacheOutcome, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, CacheOutcome{}, err
		}
		c.mu.Lock()
		e, ok := c.compiled[key]
		if !ok {
			e = &compiledEntry{done: make(chan struct{}), leaderID: telemetry.RequestID(ctx)}
			c.compiled[key] = e
			c.stats.Misses++
			c.mu.Unlock()
			capture := obsv.NewCapture(opt.Observer)
			copt := opt
			copt.Observer = capture
			e.res, e.err = compileFn(ctx, copt)
			if e.err == nil {
				e.decisions = capture.TakeDecisions()
				if cap(e.decisions)-len(e.decisions) > len(e.decisions)/8 {
					// Grown by appending, the array is up to twice what it
					// holds, and the entry would carry the excess unbooked
					// for as long as it is resident (9 MB of RSS over
					// serve_cold's 1024 entries). A list installed whole —
					// a peer fill — is already exact and is kept as is.
					e.decisions = slices.Clone(e.decisions)
				}
				// Clipped: a reader that appends to the shared list gets
				// its own array instead of writing into this one's spare
				// capacity.
				e.decisions = slices.Clip(e.decisions)
				if opt.Observer != nil {
					e.emitted = map[string]bool{opt.TraceLabel: true}
				}
				e.size = compiledSize(p, e.decisions)
			}
			c.mu.Lock()
			if e.err != nil {
				// Release the key for retry, but only if we still own it.
				if c.compiled[key] == e {
					delete(c.compiled, key)
				}
			} else {
				e.elem = c.insertLocked(&lruItem{kind: 'c', ckey: key, size: e.size})
			}
			// Publish after the maps are consistent: a waiter that wakes
			// up and retries must not find the failed leader's slot.
			close(e.done)
			c.mu.Unlock()
			return e.res, CacheOutcome{Kind: telemetry.OutcomeCold, LeaderID: e.leaderID, Decisions: e.decisions}, e.err
		}
		// Whether the entry is already complete decides hit vs coalesced.
		// done closes under c.mu, so this observation is consistent with
		// the lookup.
		completed := false
		select {
		case <-e.done:
			completed = true
		default:
		}
		c.touchLocked(e.elem)
		c.stats.Hits++
		c.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, CacheOutcome{}, ctx.Err()
		}
		if e.err != nil {
			if isCtxErr(e.err) && ctx.Err() == nil {
				// The leader died of its own cancellation; this request is
				// still live. Retry the key rather than poisoning this
				// request with someone else's context error.
				c.mu.Lock()
				c.stats.Retries++
				c.mu.Unlock()
				continue
			}
			return nil, CacheOutcome{LeaderID: e.leaderID}, e.err
		}
		if opt.Observer != nil {
			e.replay(opt.TraceLabel, opt.Observer)
		}
		kind := telemetry.OutcomeCacheHit
		if !completed {
			kind = telemetry.OutcomeCoalesced
		}
		return e.res, CacheOutcome{Kind: kind, LeaderID: e.leaderID, Decisions: e.decisions}, nil
	}
}

// replay emits the cached decision provenance to obs under label, once
// per label per entry. Concurrent hits under one label (Figure 6 runs
// the same compilation from every worker) emit a single copy. The
// emitted set is capped at maxReplayLabels; see the constant.
func (e *compiledEntry) replay(label string, obs *obsv.Observer) {
	e.mu.Lock()
	if e.emitted == nil {
		e.emitted = map[string]bool{}
	}
	first := !e.emitted[label]
	if first && len(e.emitted) < maxReplayLabels {
		e.emitted[label] = true
	}
	e.mu.Unlock()
	if !first {
		return
	}
	obs.ReplayDecisions(e.decisions, label)
}

// CompileBaseline is the PFA analogue of Compile (no provenance: the
// baseline compiler records no decisions). The singleflight wait and
// dead-leader retry follow the same rules as CompileCached.
func (c *Cache) CompileBaseline(ctx context.Context, p Program, compileFn func(context.Context) (*pfa.Result, error)) (*pfa.Result, error) {
	res, _, err := c.CompileBaselineOutcome(ctx, p, compileFn)
	return res, err
}

// CompileBaselineOutcome is CompileBaseline with the CacheOutcome
// report (see CompileOutcome).
func (c *Cache) CompileBaselineOutcome(ctx context.Context, p Program, compileFn func(context.Context) (*pfa.Result, error)) (*pfa.Result, CacheOutcome, error) {
	key := digest.Sum256(p.Source)
	for {
		if err := ctx.Err(); err != nil {
			return nil, CacheOutcome{}, err
		}
		c.mu.Lock()
		e, ok := c.baseline[key]
		if !ok {
			e = &baselineEntry{done: make(chan struct{}), leaderID: telemetry.RequestID(ctx)}
			c.baseline[key] = e
			c.stats.Misses++
			c.mu.Unlock()
			e.res, e.err = compileFn(ctx)
			if e.err == nil {
				e.size = int64(len(p.Source))*2 + 1024
			}
			c.mu.Lock()
			if e.err != nil {
				if c.baseline[key] == e {
					delete(c.baseline, key)
				}
			} else {
				e.elem = c.insertLocked(&lruItem{kind: 'b', hkey: key, size: e.size})
			}
			close(e.done)
			c.mu.Unlock()
			return e.res, CacheOutcome{Kind: telemetry.OutcomeCold, LeaderID: e.leaderID}, e.err
		}
		completed := false
		select {
		case <-e.done:
			completed = true
		default:
		}
		c.touchLocked(e.elem)
		c.stats.Hits++
		c.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, CacheOutcome{}, ctx.Err()
		}
		if e.err != nil && isCtxErr(e.err) && ctx.Err() == nil {
			c.mu.Lock()
			c.stats.Retries++
			c.mu.Unlock()
			continue
		}
		kind := telemetry.OutcomeCacheHit
		if !completed {
			kind = telemetry.OutcomeCoalesced
		}
		return e.res, CacheOutcome{Kind: kind, LeaderID: e.leaderID}, e.err
	}
}

// execProgram returns a private deep copy of a cached compiled
// program, ready for one interpreter run.
func execProgram(res *core.Result) *ir.Program { return res.Program.Clone() }

// SerialRun returns the cached serial (cycles, checksum) of p, running
// it on miss; concurrent misses run once. Waiting and dead-leader
// retry follow the same rules as CompileCached.
func (c *Cache) SerialRun(ctx context.Context, p Program, run func(context.Context) (int64, float64, error)) (int64, float64, error) {
	cycles, sum, _, err := c.SerialRunOutcome(ctx, p, run)
	return cycles, sum, err
}

// SerialRunOutcome is SerialRun with the CacheOutcome report (see
// CompileOutcome).
func (c *Cache) SerialRunOutcome(ctx context.Context, p Program, run func(context.Context) (int64, float64, error)) (int64, float64, CacheOutcome, error) {
	key := digest.Sum256(p.Source)
	for {
		if err := ctx.Err(); err != nil {
			return 0, 0, CacheOutcome{}, err
		}
		c.mu.Lock()
		e, ok := c.serial[key]
		if !ok {
			e = &serialEntry{done: make(chan struct{}), leaderID: telemetry.RequestID(ctx)}
			c.serial[key] = e
			c.stats.Misses++
			c.mu.Unlock()
			e.cycles, e.sum, e.err = run(ctx)
			if e.err == nil {
				e.size = 64
			}
			c.mu.Lock()
			if e.err != nil {
				if c.serial[key] == e {
					delete(c.serial, key)
				}
			} else {
				e.elem = c.insertLocked(&lruItem{kind: 's', hkey: key, size: e.size})
			}
			close(e.done)
			c.mu.Unlock()
			return e.cycles, e.sum, CacheOutcome{Kind: telemetry.OutcomeCold, LeaderID: e.leaderID}, e.err
		}
		completed := false
		select {
		case <-e.done:
			completed = true
		default:
		}
		c.touchLocked(e.elem)
		c.stats.Hits++
		c.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			return 0, 0, CacheOutcome{}, ctx.Err()
		}
		if e.err != nil && isCtxErr(e.err) && ctx.Err() == nil {
			c.mu.Lock()
			c.stats.Retries++
			c.mu.Unlock()
			continue
		}
		kind := telemetry.OutcomeCacheHit
		if !completed {
			kind = telemetry.OutcomeCoalesced
		}
		return e.cycles, e.sum, CacheOutcome{Kind: kind, LeaderID: e.leaderID}, e.err
	}
}
