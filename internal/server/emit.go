package server

import (
	"context"
	"errors"
	"net/http"

	"polaris/internal/codegen"
	"polaris/internal/core"
	"polaris/internal/fabric"
	"polaris/internal/telemetry"
)

// EmitRequest is the POST /v1/emit body: the same compilation knobs as
// /v1/compile plus the output target. Compilation goes through the same
// cache, so emitting a program that was just compiled is a warm hit.
type EmitRequest struct {
	// Source is the Fortran-subset program text (required).
	Source string `json:"source"`
	// Label tags the response and the generated header.
	Label string `json:"label,omitempty"`
	// Target selects the output language: "go" (default) for the
	// parallel source-to-source backend, "fortran" for the
	// directive-annotated restructured program.
	Target string `json:"target,omitempty"`
	// Processors is the worker-team size baked into emitted Go
	// (default 8, overridable at run time with the binary's -p flag).
	Processors int `json:"processors,omitempty"`
	// Techniques selects a subset of passes by canonical name.
	Techniques []string `json:"techniques,omitempty"`
	// Baseline compiles at the 1996-vendor (PFA) level instead.
	Baseline bool `json:"baseline,omitempty"`
	// TimeoutMS is the per-request compile deadline in milliseconds.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// EmitResponse is the POST /v1/emit result: the generated source and
// the per-loop verdicts that drove the lowering (its provenance).
type EmitResponse struct {
	Label string `json:"label"`
	// RequestID / Outcome / LeaderID: see CompileResponse.
	RequestID string        `json:"request_id"`
	Outcome   string        `json:"outcome"`
	LeaderID  string        `json:"leader_id,omitempty"`
	Target    string        `json:"target"`
	Cached    bool          `json:"cached"`
	Source    string        `json:"source"`
	Verdicts  []LoopVerdict `json:"verdicts"`
}

func (s *Server) handleEmit(w http.ResponseWriter, r *http.Request) {
	s.obs.Count("server_requests_total", 1)
	var req EmitRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Source == "" {
		writeError(w, http.StatusBadRequest, "missing source", "")
		return
	}
	target := req.Target
	if target == "" {
		target = "go"
	}
	if target != "go" && target != "fortran" {
		writeError(w, http.StatusBadRequest, "unknown target "+req.Target+" (want go or fortran)", "")
		return
	}
	opt, err := compileOptions(req.Techniques)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), "")
		return
	}
	if s.rejectDraining(w) {
		return
	}
	release, shed := s.admit(r.Context(), "emit", s.tenantFor(r))
	if shed {
		s.shedResponse(w, "emit")
		return
	}
	if release == nil {
		writeError(w, 499, "request canceled while queued", "")
		return
	}
	defer release()

	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.TimeoutMS))
	defer cancel()

	label := req.Label
	if label == "" {
		label = "prog"
	}
	var res *core.Result
	var sv served
	if req.Baseline {
		bres, bsv, err := s.baseline(ctx, req.Source)
		if err != nil {
			writeCompileError(w, err)
			return
		}
		res, sv = bres.Result, bsv
	} else {
		key := core.KeyOf(req.Source, opt)
		e, csv, err := s.compileCached(ctx, key, req.Source, opt)
		if err != nil {
			writeCompileError(w, err)
			return
		}
		sv = csv
		// A back end reads the program itself: the whole entry is decoded,
		// render-roundtrip proof included.
		if res, _, err = fabric.DecodeEntry(e.entry, e.checksum, key.String(), ""); err != nil {
			// The cache holds only entries this node encoded or verified, so
			// this is a fault of the node: counted, and the source compiled
			// here instead, outside the cache — a cold compile to the client.
			s.obs.Count("server_entry_decode_errors", 1)
			sv = served{outcome: telemetry.OutcomeCold}
			if res, _, err = compileLocal(ctx, req.Source, opt); err != nil {
				writeCompileError(w, err)
				return
			}
		}
	}
	setOutcome(ctx, sv.outcome, sv.leaderID, sv.cached)

	var src string
	if target == "go" {
		src, err = codegen.EmitGo(res, codegen.GoOptions{Processors: req.Processors, Label: label})
		if err != nil {
			var ue *codegen.UnsupportedError
			if errors.As(err, &ue) {
				// Refusals are a property of the program, not a server
				// fault: 422 with the reason.
				writeError(w, http.StatusUnprocessableEntity, err.Error(), "")
				return
			}
			writeError(w, http.StatusInternalServerError, "emit: "+err.Error(), "")
			return
		}
	} else {
		src = codegen.EmitFortran(res)
	}
	writeJSON(w, http.StatusOK, EmitResponse{
		Label:     label,
		RequestID: telemetry.RequestID(ctx),
		Outcome:   sv.outcome,
		LeaderID:  sv.leaderID,
		Target:    target,
		Cached:    sv.cached,
		Source:    src,
		Verdicts:  verdicts(res.Loops),
	})
}
