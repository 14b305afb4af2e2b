package server

import (
	"context"
	"io"
	"net/http"

	"polaris/internal/core"
	"polaris/internal/fabric"
	"polaris/internal/telemetry"
)

// leaderRun records what one request's cache leader did, read back by
// compileCached after the cache settles: whether a peer owns the key,
// what a peer fill reported, and what the unit memo saved a local
// compile. Only the singleflight leader writes it, and only before the
// lookup returns, so no lock is needed.
type leaderRun struct {
	peer               bool   // a peer owns the key: its entry belongs in the hot tier
	outcome            string // OutcomePeerHit / OutcomePeerMiss when a fill landed
	leaderID           string // the owner-side request that holds the entry
	reused, recompiled int    // a local compile's unit-memo counts
}

// compileFnFor builds the cache leader for one posted source. On a
// single node (or when this node owns the key) that is a plain local
// compile; when a peer owns it, the leader first asks the owner for the
// finished entry, keeps it once the render-roundtrip proof passes, and
// compiles locally only if the fill fails. The returned *leaderRun
// reports which happened, and says whether a peer owns the key, which is
// how the caller picks the tier without asking the ring again. The fill
// runs inside the requester's own singleflight slot, so concurrent local
// requests for the key coalesce onto one fill attempt, and its strict
// deadline is a child of the leader's context: a dead or hung owner
// surfaces as a fill error and a local compile, never as the leader's
// context error (which would poison coalesced waiters — the
// distributed edition of the canceled-leader bug).
func (s *Server) compileFnFor(key core.Key, src string, opt core.Options) (leader, *leaderRun) {
	run := &leaderRun{}
	local := compileSource(key, src, run)
	if s.fabric == nil {
		return local, run
	}
	route := key.String()
	_, ownerURL, isSelf := s.fabric.Owner(route)
	if isSelf {
		return local, run
	}
	run.peer = true
	freq := fabric.FillRequest{
		Source:     src,
		Techniques: core.NamesOf(opt),
		TimeoutMS:  s.fabric.FillTimeout().Milliseconds(),
	}
	fn := func(ctx context.Context, opt core.Options) (*cacheEntry, error) {
		fr, err := s.fabric.Fill(ctx, ownerURL, freq)
		if err == nil {
			// The fetched bytes are proved on pooled scratch, and the cache
			// keeps them as read once the proof passes.
			if err = fabric.VerifyEntry(fr.Entry, fr.Checksum, route); err == nil {
				if fr.Outcome == telemetry.OutcomeCold {
					// The owner compiled it just now: the tier missed, but
					// this node still skipped the work and the owner is warm
					// for everyone else.
					run.outcome = telemetry.OutcomePeerMiss
					s.obs.Count("server_peer_misses", 1)
				} else {
					run.outcome = telemetry.OutcomePeerHit
					s.obs.Count("server_peer_hits", 1)
				}
				run.leaderID = fr.LeaderID
				return &cacheEntry{entry: fr.Entry, checksum: fr.Checksum}, nil
			}
		}
		// Degrade to a local compile with whatever deadline budget
		// remains; the client sees an ordinary cold compile.
		s.obs.Count("server_peer_errors", 1)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return local(ctx, opt)
	}
	return fn, run
}

// fillFault returns the scripted owner-side fault for a protocol stage
// (FaultNone without a hook — production).
func (s *Server) fillFault(st fabric.Stage) fabric.Fault {
	if s.fault == nil {
		return fabric.FaultNone
	}
	return s.fault(st)
}

// injectFault applies a hang/die/500 fault at a stage boundary.
// Returns true when the response is finished (or the connection is
// gone). FaultHang parks until the requester gives up — its fill
// deadline, not this server's mercy, bounds the wait.
func injectFault(w http.ResponseWriter, r *http.Request, f fabric.Fault) bool {
	switch f {
	case fabric.FaultHang:
		<-r.Context().Done()
		return true
	case fabric.FaultDie:
		panic(http.ErrAbortHandler)
	case fabric.Fault500:
		writeError(w, http.StatusInternalServerError, "injected fault", "")
		return true
	}
	return false
}

// handleFabricFill is the owner side of peer cache-fill: compile the
// posted source locally (through the main cache, admission, and
// deadline machinery of a client compile — a missing entry is compiled
// once and stays warm) and write the stored entry and its checksum. This
// handler never peer-fills in turn, so ring disagreement during a
// rollout cannot form a routing loop.
func (s *Server) handleFabricFill(w http.ResponseWriter, r *http.Request) {
	s.obs.Count("server_fill_requests", 1)
	if s.rejectDraining(w) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes)
	freq, err := fabric.ReadFillRequest(r)
	if err != nil {
		writeBadRequest(w, err)
		return
	}
	if freq.Source == "" {
		writeError(w, http.StatusBadRequest, "missing source", "")
		return
	}
	opt, err := compileOptions(freq.Techniques)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), "")
		return
	}
	if injectFault(w, r, s.fillFault(fabric.StageAccept)) {
		return
	}
	release, shed := s.admit(r.Context(), "fabric_fill", "")
	if shed {
		s.shedResponse(w, "fabric_fill")
		return
	}
	if release == nil {
		writeError(w, 499, "request canceled while queued", "")
		return
	}
	defer release()

	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(freq.TimeoutMS))
	defer cancel()

	key := core.KeyOf(freq.Source, opt)
	e, out, err := s.compiled(ctx, s.cache, key, opt, compileSource(key, freq.Source, nil))
	if err != nil {
		s.obs.Count("server_compile_errors", 1)
		writeCompileError(w, err)
		return
	}
	// The entry ships as the cache holds it: no render, no encode.
	entry, sum := e.entry, e.checksum
	switch f := s.fillFault(fabric.StageEntry); f {
	case fabric.FaultCorrupt:
		// Flip a byte after the checksum was taken: the requester's
		// end-to-end verification must catch it.
		b := []byte(entry)
		b[len(b)/3] ^= 0x01
		entry = string(b)
	case fabric.FaultStale:
		// Serve a checksum-consistent entry for the wrong key (a lying
		// owner): the requester's key check must catch it.
		res, _, err := fabric.DecodeEntry(entry, sum, key.String(), "")
		if err != nil {
			writeError(w, http.StatusInternalServerError, "stored entry: "+err.Error(), "")
			return
		}
		entry, sum, _ = fabric.EncodeEntry(key.String()+"-stale", res, nil)
	default:
		if injectFault(w, r, f) {
			return
		}
	}
	sv := servedBy(out, telemetry.RequestID(ctx))
	setOutcome(ctx, sv.outcome, sv.leaderID, sv.cached)
	fabric.SetFillHeaders(w.Header(), out.Kind, out.LeaderID, sum, len(entry))
	w.WriteHeader(http.StatusOK)
	if f := s.fillFault(fabric.StageBody); f != fabric.FaultNone {
		// Death mid-body: the headers are out, Content-Length and all;
		// stream half the entry, then hang or abort — the requester is
		// left with fewer bytes than it was promised.
		_, _ = io.WriteString(w, entry[:len(entry)/2])
		_ = http.NewResponseController(w).Flush()
		if f == fabric.FaultHang {
			<-r.Context().Done()
			return
		}
		panic(http.ErrAbortHandler)
	}
	_, _ = io.WriteString(w, entry) // a requester that hung up gets nothing, and needs nothing
}

// handleFabricOwner answers which ring member owns a source's compile
// key — routing introspection for operators and for deterministic
// multi-node smoke tests (aim the cold compile at the owner, assert
// the peer_hit on everyone else).
func (s *Server) handleFabricOwner(w http.ResponseWriter, r *http.Request) {
	var oreq fabric.OwnerRequest
	if !s.decode(w, r, &oreq) {
		return
	}
	if oreq.Source == "" {
		writeError(w, http.StatusBadRequest, "missing source", "")
		return
	}
	opt, err := compileOptions(oreq.Techniques)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), "")
		return
	}
	key := core.RouteKey(oreq.Source, opt)
	node, _, isSelf := s.fabric.Owner(key)
	writeJSON(w, http.StatusOK, fabric.OwnerResponse{Key: key, Owner: node, Self: isSelf})
}
