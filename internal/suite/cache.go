package suite

import (
	"context"
	"slices"
	"sync"

	"polaris/internal/core"
	"polaris/internal/obsv"
	"polaris/internal/pfa"
	"polaris/internal/store"
)

// maxReplayLabels bounds the per-entry emitted-label set. The set
// exists to keep repeat hits under one label from duplicating
// provenance in a shared trace (Figure 6 runs one compilation from
// every worker). Past the bound new labels are replayed without being
// recorded; the dedup guarantee holds for the first maxReplayLabels
// distinct labels per entry, which covers every shared-observer use.
const maxReplayLabels = 1024

// cacheKey tags a compile key with what it memoizes: 'c' a Polaris
// compilation, 'b' a PFA baseline compilation and 's' a serial run,
// the last two keyed by source alone (zero Options).
type cacheKey struct {
	kind byte
	key  core.Key
}

// cacheEntry is one finished computation; only its kind's fields are
// set, all before the store publishes it and immutable afterwards. A
// compilation keeps the decision provenance its leader recorded, so a
// hit that brings an observer has it replayed under its own label —
// without that, every hitting compilation would silently lose its
// decision records from traces and `polaris explain`.
type cacheEntry struct {
	res       *core.Result
	decisions []obsv.Decision
	base      *pfa.Result
	cycles    int64
	sum       float64

	mu      sync.Mutex
	emitted map[string]bool // labels already replayed to an observer; nil until one is
}

// cache is the Runner's memo of compilations and serial runs, keyed by
// source content hash: one store.Store, so each key is computed once
// and a shared trace writer sees one span set and one decision set per
// compilation. It is unbounded: the suite is 16 programs, and an entry
// is booked at its source's length, which only orders entries for a
// test that bounds the store. Cached compiled programs are shared;
// executions receive a fresh Clone so concurrent interpreter runs never
// touch the same IR.
type cache struct {
	*store.Store[cacheKey, *cacheEntry]
}

func newCache() *cache {
	return &cache{store.New[cacheKey, *cacheEntry](store.Limits{})}
}

// compile returns the cached compilation of p under opt, running fn on
// a miss. The leader threads a private capture observer (forwarding to
// opt.Observer) through fn and the entry takes the list it recorded; a
// lookup that brings an observer and did not lead has that list
// replayed to it, relabelled, once per not-yet-seen label.
func (c *cache) compile(ctx context.Context, p Program, opt core.Options, fn func(context.Context, core.Options) (*core.Result, error)) (*cacheEntry, store.Outcome, error) {
	e, out, err := c.Do(ctx, cacheKey{'c', core.KeyOf(p.Source, opt)}, func(ctx context.Context) (*cacheEntry, int64, error) {
		capture := obsv.NewCapture(opt.Observer)
		copt := opt
		copt.Observer = capture
		res, err := fn(ctx, copt)
		if err != nil {
			return nil, 0, err
		}
		e := &cacheEntry{res: res, decisions: slices.Clip(capture.TakeDecisions())}
		if opt.Observer != nil {
			e.emitted = map[string]bool{opt.TraceLabel: true}
		}
		return e, int64(len(p.Source)), nil
	})
	if err == nil && opt.Observer != nil {
		e.replay(opt.TraceLabel, opt.Observer)
	}
	return e, out, err
}

// replay emits the cached decision provenance to obs under label, once
// per label per entry. Concurrent hits under one label (Figure 6 runs
// the same compilation from every worker) emit a single copy. The
// emitted set is capped at maxReplayLabels; see the constant.
func (e *cacheEntry) replay(label string, obs *obsv.Observer) {
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

// baseline is compile's PFA analogue (no provenance: the baseline
// compiler records no decisions).
func (c *cache) baseline(ctx context.Context, p Program, fn func(context.Context) (*pfa.Result, error)) (*pfa.Result, store.Outcome, error) {
	e, out, err := c.Do(ctx, cacheKey{'b', core.KeyOf(p.Source, core.Options{})}, func(ctx context.Context) (*cacheEntry, int64, error) {
		res, err := fn(ctx)
		if err != nil {
			return nil, 0, err
		}
		return &cacheEntry{base: res}, int64(len(p.Source)), nil
	})
	if err != nil {
		return nil, out, err
	}
	return e.base, out, nil
}

// serial returns the cached serial (cycles, checksum) of p, running it
// on a miss.
func (c *cache) serial(ctx context.Context, p Program, run func(context.Context) (int64, float64, error)) (int64, float64, store.Outcome, error) {
	e, out, err := c.Do(ctx, cacheKey{'s', core.KeyOf(p.Source, core.Options{})}, func(ctx context.Context) (*cacheEntry, int64, error) {
		cycles, sum, err := run(ctx)
		if err != nil {
			return nil, 0, err
		}
		return &cacheEntry{cycles: cycles, sum: sum}, 64, nil
	})
	if err != nil {
		return 0, 0, out, err
	}
	return e.cycles, e.sum, out, nil
}
