package server

import (
	"context"
	"slices"

	"polaris/internal/core"
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

// cacheEntry is one finished compile: res and the decision list its
// leader recorded, or base for a baseline. It is published whole and
// never written afterwards. The entry owns the list and hands the same
// backing array to every lookup, cold, hit and coalesced alike; nobody
// may write it — a response under another label takes obsv.Relabel's
// copy.
type cacheEntry struct {
	res       *core.Result
	decisions []obsv.Decision
	base      *pfa.Result
}

// leader computes a compile the cache does not hold, with the decision
// list it recorded: a local compile captures and takes its list, a peer
// fill returns the list it decoded.
type leader func(context.Context, core.Options) (*core.Result, []obsv.Decision, error)

// tier is one store of compiled entries: a node's main cache or its
// hot tier.
type tier = store.Store[cacheKey, *cacheEntry]

// compiled returns the compile of src under opt (key is
// core.KeyOf(src, opt)) cached in t, running fill on a miss.
func (s *Server) compiled(ctx context.Context, t *tier, key core.Key, src string, opt core.Options, fill leader) (*cacheEntry, store.Outcome, error) {
	return t.Do(ctx, cacheKey{key: key}, func(ctx context.Context) (*cacheEntry, int64, error) {
		res, ds, err := fill(ctx, opt)
		if err != nil {
			return nil, 0, err
		}
		if cap(ds)-len(ds) > len(ds)/8 {
			// Grown by appending — a compile's capture; a fill's decode
			// makes the list at its decoded length — the array is up to
			// twice what it holds, and the entry would carry the excess
			// unbooked for as long as it is resident (9 MB of RSS over
			// serve_cold's 1024 entries).
			ds = slices.Clone(ds)
		}
		// Clipped: a reader that appends to the shared list gets its own
		// array instead of writing into this one's spare capacity.
		ds = slices.Clip(ds)
		return &cacheEntry{res: res, decisions: ds}, core.CompiledSize(src, ds), nil
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
		return &cacheEntry{base: res}, core.CompiledSize(src, nil), nil
	})
	if err != nil {
		s.obs.Count("server_compile_errors", 1)
		return nil, served{}, err
	}
	return e.base, servedBy(out, telemetry.RequestID(ctx)), nil
}

// compileSource is the local leader for one POSTed source: parse (typed
// *parser.ParseError on failure), then run the pipeline under the
// leader's context and a private capture whose list the entry takes.
func compileSource(src string) leader {
	return func(ctx context.Context, opt core.Options) (*core.Result, []obsv.Decision, error) {
		prog, err := parser.ParseProgram(src)
		if err != nil {
			return nil, nil, err
		}
		capture := obsv.NewCapture(nil)
		opt.Observer = capture
		// The program was just parsed (ParseProgram checked it) and is
		// used for nothing else, and cached Results are shared read-only
		// across requests anyway — so hand over ownership and skip the
		// driver's defensive re-check and clone.
		opt.TrustedInput = true
		res, err := core.CompileContext(ctx, prog, opt)
		if err != nil {
			return nil, nil, err
		}
		return res, capture.TakeDecisions(), nil
	}
}

// served is how a request's compile was answered, as its response and
// access-log line name it.
type served struct {
	outcome  string
	leaderID string // the foreign leader; empty when this request led
	cached   bool   // answered without compiling on this node
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
	fill, pf := s.compileFnFor(key, src, opt)
	t := s.cache
	if pf != nil {
		t = s.hot
	}
	e, out, err := s.compiled(ctx, t, key, src, opt, fill)
	if err != nil {
		s.obs.Count("server_compile_errors", 1)
		return nil, served{}, err
	}
	reqID := telemetry.RequestID(ctx)
	sv := servedBy(out, reqID)
	if sv.cached {
		s.obs.Count("server_cache_hits", 1)
	} else if pf != nil && pf.outcome != "" {
		sv.outcome, sv.cached = pf.outcome, true
		if pf.leaderID != "" && pf.leaderID != reqID {
			sv.leaderID = pf.leaderID
		}
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
