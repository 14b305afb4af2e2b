package server

import (
	"context"

	"polaris/internal/core"
	"polaris/internal/fabric"
	"polaris/internal/obsv"
	"polaris/internal/parser"
	"polaris/internal/pfa"
	"polaris/internal/store"
	"polaris/internal/telemetry"
)

// cacheKey is a compile key tagged with its kind: one store holds both
// Polaris and baseline (PFA, keyed by source under zero Options)
// compilations, so both count against one bound.
type cacheKey struct {
	baseline bool
	key      core.Key
}

// cacheEntry is one finished compile, published whole and never written
// afterwards. A Polaris compile is the wire entry fabric.EncodeEntry
// made of it and that entry's checksum: the restructured program with
// its verdicts, clauses, decisions and pass report, as bytes. Each reader
// decodes what it needs — a compile or explain response a fabric.View,
// an emit the whole result, a peer fill nothing. A baseline, which never
// crosses the wire, keeps its result.
type cacheEntry struct {
	entry, checksum string
	base            *pfa.Result
}

// entryOverhead is what a resident Polaris entry holds beyond its two
// strings: the cacheEntry, the store's slot with its channel, LRU
// element and map slot, the key's options string and the leader's
// request ID. TestCacheBooksWhatItHolds measures it against the live
// heap.
const entryOverhead = 640

// size is what an entry is booked at against the cache's byte bound.
func (e *cacheEntry) size() int64 {
	return int64(len(e.entry)+len(e.checksum)) + entryOverhead
}

// baselineSize books a baseline entry, which keeps its IR: about four
// bytes per byte of the source, and a fixed part.
func baselineSize(src string) int64 { return int64(len(src))*4 + 3072 }

// leader computes an entry the cache does not hold: a local compile
// encodes what it compiled, a peer fill verifies what it fetched.
type leader func(context.Context, core.Options) (*cacheEntry, error)

// tier is one store of compiled entries: a node's main cache or its
// hot tier.
type tier = store.Store[cacheKey, *cacheEntry]

// compiled returns the entry for key cached in t, running fill on a miss.
func (s *Server) compiled(ctx context.Context, t *tier, key core.Key, opt core.Options, fill leader) (*cacheEntry, store.Outcome, error) {
	return t.Do(ctx, cacheKey{key: key}, func(ctx context.Context) (*cacheEntry, int64, error) {
		e, err := fill(ctx, opt)
		if err != nil {
			return nil, 0, err
		}
		return e, e.size(), nil
	})
}

// baseline answers a baseline (PFA) compile of src from the cache.
func (s *Server) baseline(ctx context.Context, src string) (*pfa.Result, served, error) {
	e, out, err := s.cache.Do(ctx, cacheKey{baseline: true, key: core.KeyOf(src, core.Options{})}, func(ctx context.Context) (*cacheEntry, int64, error) {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		prog, err := parser.ParseProgram(src)
		if err != nil {
			return nil, 0, err
		}
		res, err := pfa.Compile(prog)
		if err != nil {
			return nil, 0, err
		}
		return &cacheEntry{base: res}, baselineSize(src), nil
	})
	if err != nil {
		s.obs.Count("server_compile_errors", 1)
		return nil, served{}, err
	}
	return e.base, servedBy(out, telemetry.RequestID(ctx)), nil
}

// compileLocal compiles one POSTed source: parse (typed
// *parser.ParseError on failure), then run the pipeline under ctx and a
// private capture whose list it returns.
func compileLocal(ctx context.Context, src string, opt core.Options) (*core.Result, []obsv.Decision, error) {
	prog, err := parser.ParseProgram(src)
	if err != nil {
		return nil, nil, err
	}
	capture := obsv.NewCapture(nil)
	opt.Observer = capture
	// The program was just parsed and is used for nothing else, so hand
	// it over: the compile takes its units in place instead of cloning.
	opt.TrustedInput = true
	res, err := core.CompileContext(ctx, prog, opt)
	if err != nil {
		return nil, nil, err
	}
	return res, capture.TakeDecisions(), nil
}

// compileSource is the local leader for one POSTed source whose key is
// key: compile, then encode the result and the decisions it recorded as
// the entry the cache keeps. run, when not nil, receives the compile's
// unit-memo counts.
func compileSource(key core.Key, src string, run *leaderRun) leader {
	return func(ctx context.Context, opt core.Options) (*cacheEntry, error) {
		res, ds, err := compileLocal(ctx, src, opt)
		if err != nil {
			return nil, err
		}
		if run != nil {
			run.reused, run.recompiled = res.UnitsReused, res.UnitsRecompiled
		}
		entry, sum, err := fabric.EncodeEntry(key.String(), res, ds)
		if err != nil {
			return nil, err
		}
		return &cacheEntry{entry: entry, checksum: sum}, nil
	}
}

// served is how a request's compile was answered, as its response and
// access-log line name it.
type served struct {
	outcome  string
	leaderID string // the foreign leader; empty when this request led
	cached   bool   // answered without compiling on this node
	// reused and recompiled are the unit-memo counts of the compile this
	// request ran itself; zero when it ran none.
	reused, recompiled int
}

// compileCached answers a Polaris compile of src from the cache,
// peer-filling a miss whose key another node owns. A key this node owns
// lives in its main cache; a peer-owned key lives in the hot tier,
// whether the fill landed or fell back to a local compile, so the fleet
// holds each entry once at its owner and only a small hot copy here. A
// cold outcome a peer fill satisfied reports the fill's outcome
// instead: this node skipped the compile, and the entry's true leader
// lives on the owner.
func (s *Server) compileCached(ctx context.Context, key core.Key, src string, opt core.Options) (*cacheEntry, served, error) {
	fill, run := s.compileFnFor(key, src, opt)
	t := s.cache
	if run.peer {
		t = s.hot
	}
	e, out, err := s.compiled(ctx, t, key, opt, fill)
	if err != nil {
		s.obs.Count("server_compile_errors", 1)
		return nil, served{}, err
	}
	reqID := telemetry.RequestID(ctx)
	sv := servedBy(out, reqID)
	switch {
	case sv.cached:
		s.obs.Count("server_cache_hits", 1)
	case run.outcome != "":
		sv.outcome, sv.cached = run.outcome, true
		if run.leaderID != "" && run.leaderID != reqID {
			sv.leaderID = run.leaderID
		}
	default:
		sv.reused, sv.recompiled = run.reused, run.recompiled
	}
	return e, sv, nil
}

// servedBy reports a cache lookup by the request reqID: the foreign
// leader stays empty when this request led (its own ID would be
// redundant) or when the leader carried no ID.
func servedBy(out store.Outcome, reqID string) served {
	sv := served{outcome: out.Kind, cached: out.Kind != telemetry.OutcomeCold}
	if sv.cached && out.LeaderID != reqID {
		sv.leaderID = out.LeaderID
	}
	return sv
}
