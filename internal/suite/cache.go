package suite

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"polaris/internal/core"
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
type CacheOutcome struct {
	Kind     string
	LeaderID string
}

// cacheKey identifies one compilation: the content hash of the Fortran
// source plus a fingerprint of the technique configuration.
type cacheKey struct {
	src  [32]byte
	opts string
}

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

// RouteKey renders the cache identity of one compilation — the
// source content hash plus the technique fingerprint — as a string.
// It is exactly the key CompileOutcome computes internally, so it
// doubles as the consistent-hash routing key of the distributed
// compile fabric: every node hashes an incoming request to the same
// owner because every node derives the key from the same bytes.
func RouteKey(src string, opt core.Options) string {
	h := srcHash(src)
	return hex.EncodeToString(h[:]) + "|" + optKey(opt)
}

// Fill returns a compile function that installs an already-materialized
// compilation — typically one decoded from a peer node's cache — as if
// it had been compiled by this process. The result is returned as-is,
// and the captured decision provenance is replayed into the compiling
// observer under the installing request's label, so the singleflight
// leader's capture records it and every later cache hit replays it
// exactly as for a locally compiled entry.
func Fill(res *core.Result, decisions []obsv.Decision) func(context.Context, core.Options) (*core.Result, error) {
	return func(_ context.Context, opt core.Options) (*core.Result, error) {
		opt.Observer.ReplayDecisions(decisions, opt.TraceLabel)
		return res, nil
	}
}

// maxReplayLabels bounds the per-entry emitted-label set. The set
// exists to keep repeat hits under one label from duplicating
// provenance in a shared trace (Figure 6 runs one compilation from
// every worker); a long-running server hits one entry under millions
// of distinct request labels, so past this bound new labels are
// replayed without being recorded. The dedup guarantee holds for the
// first maxReplayLabels distinct labels per entry, which covers every
// shared-observer use, and the entry's memory stays bounded.
const maxReplayLabels = 1024

// compiledEntry is one singleflight slot: the leader closes done after
// filling res/err; waiters block on done (or their own context). The
// captured per-loop Decision provenance is kept so cache hits can
// replay it under their own label — without replay, every hitting
// compilation would silently lose its decision records from traces and
// `polaris explain`. res, err, decisions, and size are written only by
// the leader before done closes and are immutable afterwards, so a
// goroutine holding the entry may replay from it even after the entry
// has been evicted from the cache maps.
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
	emitted map[string]bool // labels whose provenance is already out
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
	ckey cacheKey
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
	compiled map[cacheKey]*compiledEntry
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
		compiled: map[cacheKey]*compiledEntry{},
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

func srcHash(src string) [32]byte { return sha256.Sum256([]byte(src)) }

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
// miss; see CompileCached.
func (c *Cache) Compile(ctx context.Context, p Program, opt core.Options, compileFn func(context.Context, core.Options) (*core.Result, error)) (*core.Result, error) {
	res, _, err := c.CompileCached(ctx, p, opt, compileFn)
	return res, err
}

// CompileCached returns the cached compilation of p under opt,
// compiling on miss, and reports whether the result came from a
// completed or in-flight cache entry. See CompileOutcome for the full
// semantics and the finer-grained outcome report.
func (c *Cache) CompileCached(ctx context.Context, p Program, opt core.Options, compileFn func(context.Context, core.Options) (*core.Result, error)) (*core.Result, bool, error) {
	res, out, err := c.CompileOutcome(ctx, p, opt, compileFn)
	return res, err == nil && out.Kind != telemetry.OutcomeCold, err
}

// CompileOutcome returns the cached compilation of p under opt,
// compiling on miss, along with how the lookup was satisfied (cold /
// cache_hit / coalesced, plus the leader's request ID — see
// CacheOutcome). Exactly one compilation happens per key; the leader
// threads a capture observer through the compile so the entry keeps
// the decision provenance, and every later hit under a not-yet-seen
// label replays those decisions to opt.Observer relabeled for the
// hitting compilation. Failed compiles are not cached (the key is
// released for retry, e.g. after a context cancellation).
//
// Waiters select on their own ctx while the leader runs; a canceled
// waiter returns its own ctx.Err() promptly. When the leader fails
// with a context error but the waiter's context is still live, the
// waiter retries (typically becoming the new leader, and reporting the
// outcome of that final attempt) instead of surfacing the dead
// leader's error.
func (c *Cache) CompileOutcome(ctx context.Context, p Program, opt core.Options, compileFn func(context.Context, core.Options) (*core.Result, error)) (*core.Result, CacheOutcome, error) {
	key := cacheKey{src: srcHash(p.Source), opts: optKey(opt)}
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
				e.decisions = capture.Decisions()
				e.emitted = map[string]bool{opt.TraceLabel: true}
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
			return e.res, CacheOutcome{Kind: telemetry.OutcomeCold, LeaderID: e.leaderID}, e.err
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
		e.replay(opt.TraceLabel, opt.Observer)
		kind := telemetry.OutcomeCacheHit
		if !completed {
			kind = telemetry.OutcomeCoalesced
		}
		return e.res, CacheOutcome{Kind: kind, LeaderID: e.leaderID}, nil
	}
}

// replay emits the cached decision provenance to obs under label, once
// per label per entry. Concurrent hits under one label (Figure 6 runs
// the same compilation from every worker) emit a single copy. The
// emitted set is capped at maxReplayLabels; see the constant.
func (e *compiledEntry) replay(label string, obs *obsv.Observer) {
	e.mu.Lock()
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
	key := srcHash(p.Source)
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
	key := srcHash(p.Source)
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
