// Package fabric is the peer tier of polaris-serve: N nodes
// consistent-hash route on the compile cache's content-hash key, and a
// node that misses asks the key's owner over HTTP for the finished
// compilation before compiling locally (peer cache-fill).
//
// The wire format moves a compiled entry between nodes without moving
// Go objects: the owner renders the restructured program back to its
// canonical Fortran form and ships it with the per-loop verdicts,
// ParInfo clauses, decision provenance, and pass report. The receiver
// re-parses the rendering, re-stamps loop IDs with the same pre-order
// rule the compiler uses, re-attaches the ParInfo annotations, and then
// *proves* the reconstruction faithful by rendering it again: the
// second rendering must be byte-identical to the first (the directives
// are a pure function of the re-attached annotations). Any mismatch —
// corruption, version skew, a construct that does not round-trip —
// rejects the fill, and the caller degrades to a local compile. The
// whole payload additionally carries an end-to-end SHA-256 checksum so
// a truncated or bit-flipped body is rejected before parsing.
//
// Failure is always graceful by design: a dead, hung, or lying owner
// costs the requester one local compilation, never a wrong answer —
// the distributed analog of the canceled-singleflight-leader bug class
// fixed in the local cache.
package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"polaris/internal/core"
	"polaris/internal/digest"
	"polaris/internal/ir"
	"polaris/internal/obsv"
	"polaris/internal/parser"
	"polaris/internal/passes"
)

// EntrySchema versions the wire entry. A receiver rejects any other
// value: version skew degrades to a local compile, never to a
// misdecoded entry.
const EntrySchema = 1

// Entry is one compiled cache entry on the wire.
type Entry struct {
	Schema int `json:"schema"`
	// RouteKey is the compilation's cache identity (core.RouteKey):
	// source content hash + technique fingerprint. The receiver rejects
	// an entry whose key is not the one it asked for (a stale or
	// misrouted fill).
	RouteKey string `json:"route_key"`
	// Rendered is the restructured program in canonical Fortran form;
	// RenderedSHA256 pins it for the reconstruction fidelity check.
	Rendered       string `json:"rendered"`
	RenderedSHA256 string `json:"rendered_sha256"`
	// Loops carries the per-loop verdicts and their ParInfo clauses in
	// report order.
	Loops []WireLoop `json:"loops"`
	// Decisions is the captured per-loop decision provenance. Labels
	// are stripped on encode; the receiver replays them under its own
	// request label.
	Decisions []obsv.Decision `json:"decisions,omitempty"`
	// Report is the owner's pass-manager instrumentation.
	Report  []passes.Event `json:"report,omitempty"`
	TotalNS int64          `json:"total_ns,omitempty"`
	// Result scalars (see core.Result).
	InlinedCalls       int               `json:"inlined_calls,omitempty"`
	InlineSkipped      map[string]string `json:"inline_skipped,omitempty"`
	InductionVars      []string          `json:"induction_vars,omitempty"`
	StrengthReduced    int               `json:"strength_reduced,omitempty"`
	NormalizedLoops    int               `json:"normalized_loops,omitempty"`
	InterprocConstants map[string]int64  `json:"interproc_constants,omitempty"`
}

// WireLoop is one loop verdict with its parallelization clauses.
type WireLoop struct {
	ID       string      `json:"id"`
	Unit     string      `json:"unit"`
	Index    string      `json:"index"`
	Depth    int         `json:"depth"`
	Parallel bool        `json:"parallel"`
	LRPD     []string    `json:"lrpd,omitempty"`
	Reason   string      `json:"reason"`
	Par      *ir.ParInfo `json:"par,omitempty"`
}

// EncodeEntry serializes a compiled result and its captured decision
// provenance for one peer fill. The returned checksum is the SHA-256
// of the entry bytes; receivers verify it end-to-end before decoding.
// res and decisions are only read — they are typically a cache entry's
// own, shared with every request that hits it.
func EncodeEntry(routeKey string, res *core.Result, decisions []obsv.Decision) (entry []byte, checksum string, err error) {
	rendered := res.Program.Fortran()
	e := Entry{
		Schema:         EntrySchema,
		RouteKey:       routeKey,
		Rendered:       rendered,
		RenderedSHA256: sumHexString(rendered),
		Loops:          make([]WireLoop, len(res.Loops)),
		// The owner's labels are meaningless to the receiver, which
		// replays under its own label.
		Decisions:          obsv.Relabel(decisions, ""),
		InlinedCalls:       res.InlinedCalls,
		InlineSkipped:      res.InlineSkipped,
		InductionVars:      res.InductionVars,
		StrengthReduced:    res.StrengthReduced,
		NormalizedLoops:    res.NormalizedLoops,
		InterprocConstants: res.InterprocConstants,
	}
	for i, l := range res.Loops {
		e.Loops[i] = WireLoop{
			ID: l.ID, Unit: l.Unit, Index: l.Index, Depth: l.Depth,
			Parallel: l.Parallel, LRPD: l.LRPD, Reason: l.Reason,
		}
		if l.Loop != nil {
			// Cloned not for ownership but for spelling: Clone turns an
			// empty clause list into a nil one, which the wire writes as
			// null, and the entry bytes may not depend on which a pass
			// happened to leave.
			e.Loops[i].Par = l.Loop.Par.Clone()
		}
	}
	if res.Report != nil {
		e.Report = make([]passes.Event, len(res.Report.Events))
		for i, ev := range res.Report.Events {
			ev.Label = ""
			e.Report[i] = ev
		}
		e.TotalNS = res.Report.TotalNS
	}
	entry, err = json.Marshal(e)
	if err != nil {
		return nil, "", err
	}
	return entry, sumHex(entry), nil
}

// DecodeEntry reconstructs a compiled result from wire bytes. wantKey
// is the route key the receiver asked for; any disagreement —
// checksum, schema, key, parse failure, loop mismatch, or a
// reconstruction that fails the render-roundtrip proof — returns an
// error and the caller falls back to a local compile.
func DecodeEntry(entry []byte, checksum, wantKey string) (*core.Result, []obsv.Decision, error) {
	if got := sumHex(entry); got != checksum {
		return nil, nil, fmt.Errorf("fabric: entry checksum mismatch (got %.12s want %.12s)", got, checksum)
	}
	var e Entry
	if err := json.Unmarshal(entry, &e); err != nil {
		return nil, nil, fmt.Errorf("fabric: entry decode: %w", err)
	}
	if e.Schema != EntrySchema {
		return nil, nil, fmt.Errorf("fabric: entry schema %d, want %d", e.Schema, EntrySchema)
	}
	if e.RouteKey != wantKey {
		return nil, nil, fmt.Errorf("fabric: stale entry: route key %.20s..., want %.20s...", e.RouteKey, wantKey)
	}
	if got := sumHexString(e.Rendered); got != e.RenderedSHA256 {
		return nil, nil, fmt.Errorf("fabric: rendered program checksum mismatch")
	}

	prog, err := parser.ParseProgram(e.Rendered)
	if err != nil {
		return nil, nil, fmt.Errorf("fabric: reparse rendered program: %w", err)
	}
	// Re-stamp loop identities with the compiler's own pre-order rule,
	// then re-attach the verdict annotations by (unit, ID).
	loopByID := map[string]*ir.DoStmt{}
	for _, u := range prog.Units {
		core.AssignLoopIDs(u)
		for _, d := range ir.Loops(u.Body) {
			loopByID[u.Name+"\x00"+d.ID] = d
		}
	}
	res := &core.Result{
		Program:            prog,
		Unit:               prog.Main(),
		InlinedCalls:       e.InlinedCalls,
		InlineSkipped:      e.InlineSkipped,
		InductionVars:      e.InductionVars,
		StrengthReduced:    e.StrengthReduced,
		NormalizedLoops:    e.NormalizedLoops,
		InterprocConstants: e.InterprocConstants,
	}
	if res.Unit == nil {
		return nil, nil, fmt.Errorf("fabric: rendered program has no main unit")
	}
	if res.InlineSkipped == nil {
		res.InlineSkipped = map[string]string{}
	}
	res.Loops = make([]core.LoopReport, 0, len(e.Loops))
	for _, wl := range e.Loops {
		d := loopByID[wl.Unit+"\x00"+wl.ID]
		if d == nil {
			return nil, nil, fmt.Errorf("fabric: entry names loop %s/%s absent from the rendered program", wl.Unit, wl.ID)
		}
		d.Par = wl.Par // decoded for this entry alone: nobody else holds it
		res.Loops = append(res.Loops, core.LoopReport{
			Loop: d, ID: wl.ID, Unit: wl.Unit, Index: wl.Index, Depth: wl.Depth,
			Parallel: wl.Parallel, LRPD: wl.LRPD, Reason: wl.Reason,
		})
	}
	// The fidelity proof: rendering the reconstruction (annotations
	// re-attached, so the directives reappear) must reproduce the
	// owner's rendering byte for byte. A program that does not
	// round-trip is rejected rather than trusted. e.Rendered has just
	// been verified against RenderedSHA256, so comparing the bytes says
	// at least what hashing the second rendering would, and a faithful
	// one is exactly as long, so the builder never grows.
	var again strings.Builder
	again.Grow(len(e.Rendered))
	prog.WriteFortran(&again)
	if again.String() != e.Rendered {
		return nil, nil, fmt.Errorf("fabric: reconstruction failed the render-roundtrip check")
	}
	if len(e.Report) > 0 {
		res.Report = &passes.PipelineReport{Events: e.Report, TotalNS: e.TotalNS}
	}
	return res, e.Decisions, nil
}

func sumHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// sumHexString is sumHex of a string, streamed to the digest instead of
// converted: converting would copy a whole rendering to the heap to
// hash it.
func sumHexString(s string) string {
	sum := digest.Sum256(s)
	return hex.EncodeToString(sum[:])
}
