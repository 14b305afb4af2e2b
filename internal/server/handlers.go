package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"polaris/internal/core"
	"polaris/internal/fabric"
	"polaris/internal/obsv"
	"polaris/internal/parser"
	"polaris/internal/telemetry"
)

// CompileRequest is the POST /v1/compile body.
type CompileRequest struct {
	// Source is the Fortran-subset program text (required).
	Source string `json:"source"`
	// Label tags the response's verdicts and decisions (default "prog").
	Label string `json:"label,omitempty"`
	// Techniques selects a subset of passes by canonical name (see
	// polaris.TechniqueNames); empty means the full Polaris set.
	Techniques []string `json:"techniques,omitempty"`
	// Baseline compiles at the 1996-vendor (PFA) level instead.
	Baseline bool `json:"baseline,omitempty"`
	// TimeoutMS is the per-request compile deadline in milliseconds,
	// clamped to the server's MaxTimeout; 0 means the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Previous is the program_hash of the source this request edits
	// (incremental requests only, advisory). The per-unit memo is keyed
	// by unit content, so reuse works without it; clients send it to
	// make the edit chain auditable in access logs.
	Previous string `json:"previous,omitempty"`
}

// LoopVerdict is one per-loop verdict in a CompileResponse.
type LoopVerdict struct {
	ID          string   `json:"id,omitempty"`
	Unit        string   `json:"unit"`
	Index       string   `json:"index"`
	Depth       int      `json:"depth"`
	Parallel    bool     `json:"parallel"`
	RunTimeTest []string `json:"run_time_test,omitempty"`
	Reason      string   `json:"reason"`
}

// PassReport is one pass of the pipeline report.
type PassReport struct {
	Pass       string           `json:"pass"`
	DurationNS int64            `json:"duration_ns"`
	Mutations  map[string]int64 `json:"mutations,omitempty"`
}

// CompileResponse is the POST /v1/compile result.
type CompileResponse struct {
	Label string `json:"label"`
	// RequestID is this request's trace ID (the X-Request-Id header,
	// client-supplied or generated); every access-log line and cache
	// attribution uses the same ID.
	RequestID string `json:"request_id"`
	// Outcome tells how the request was satisfied: "cold" (this request
	// ran the compile), "cache_hit" (completed cache entry), or
	// "coalesced" (rode another request's in-flight compile).
	Outcome string `json:"outcome"`
	// LeaderID names the request that actually performed the compile
	// when this one did not (coalesced waiters and cache hits); its
	// response — or access-log line — carries outcome "cold".
	LeaderID      string `json:"leader_id,omitempty"`
	Cached        bool   `json:"cached"`
	ParallelLoops int    `json:"parallel_loops"`
	// Incremental reports whether this request compiled against the
	// per-unit memo (?incremental=1). ProgramHash is the SHA-256 of the
	// posted source — clients echo it back as `previous` on their next
	// edit. UnitsReused / UnitsRecompiled split the program's units by
	// whether their memoized results were replayed or recomputed; both
	// are zero for non-incremental and whole-program-cached requests.
	Incremental     bool            `json:"incremental,omitempty"`
	ProgramHash     string          `json:"program_hash,omitempty"`
	UnitsReused     int             `json:"units_reused,omitempty"`
	UnitsRecompiled int             `json:"units_recompiled,omitempty"`
	Verdicts        []LoopVerdict   `json:"verdicts"`
	Decisions       []obsv.Decision `json:"decisions,omitempty"`
	// Report is the pass manager's instrumentation. For cache hits it
	// describes the original (cached) compilation. Absent for baseline
	// compilations.
	Report []PassReport `json:"report,omitempty"`
	// CodegenFactor is the modelled back-end code-quality factor
	// (baseline compilations only).
	CodegenFactor float64 `json:"codegen_factor,omitempty"`
}

// ExplainRequest is the POST /v1/explain body: the `polaris explain`
// surface as JSON.
type ExplainRequest struct {
	Source string `json:"source"`
	Label  string `json:"label,omitempty"`
	// Loop restricts the explanation to one loop (full ID "MAIN/L30",
	// bare "L30", or index variable); empty explains every loop.
	Loop string `json:"loop,omitempty"`
	// Verbose includes the full per-pass decision trail.
	Verbose   bool  `json:"verbose,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ExplainResponse is the POST /v1/explain result.
type ExplainResponse struct {
	Label string `json:"label"`
	// RequestID / Outcome / LeaderID: see CompileResponse.
	RequestID string `json:"request_id"`
	Outcome   string `json:"outcome"`
	LeaderID  string `json:"leader_id,omitempty"`
	// Lines are the human-readable per-loop verdict lines, indented by
	// nesting depth, in program order.
	Lines []string `json:"lines"`
	// Trail is the per-pass decision trail (verbose or single-loop
	// queries).
	Trail []obsv.Decision `json:"trail,omitempty"`
}

// errorBody is every non-2xx JSON body.
type errorBody struct {
	Error string `json:"error"`
	// Pass names the failed pipeline pass for *core.PipelineError
	// responses.
	Pass string `json:"pass,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg, pass string) {
	writeJSON(w, status, errorBody{Error: msg, Pass: pass})
}

// decode reads a bounded JSON body into v.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes)
	return s.decodeFrom(w, r.Body, v)
}

// decodeFrom decodes JSON from an already-bounded reader into v.
func (s *Server) decodeFrom(w http.ResponseWriter, rd io.Reader, v any) bool {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeBadRequest(w, err)
		return false
	}
	return true
}

// writeBadRequest answers a body that could not be read: 413 past the
// size bound, 400 otherwise.
func writeBadRequest(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, "bad request: "+err.Error(), "")
}

// compileFailure is one compile's failure, carried as data so the
// batch handler can report it per item while the single handler maps
// it onto the whole response.
type compileFailure struct {
	status int
	msg    string
	pass   string
}

// compileFailureFrom maps a compile failure to an HTTP status: parse
// errors are the client's fault (400), deadline expiry is 504, a
// client-abandoned request is 499 (nginx convention), and a pipeline
// failure — including a recovered pass panic — is a 500 naming the
// pass while the process survives.
func compileFailureFrom(err error) *compileFailure {
	var pe *parser.ParseError
	if errors.As(err, &pe) {
		return &compileFailure{http.StatusBadRequest, "parse: " + err.Error(), ""}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return &compileFailure{http.StatusGatewayTimeout, "compile deadline exceeded", ""}
	}
	if errors.Is(err, context.Canceled) {
		return &compileFailure{499, "request canceled", ""}
	}
	var pipe *core.PipelineError
	if errors.As(err, &pipe) {
		return &compileFailure{http.StatusInternalServerError, "compile: " + pipe.Error(), pipe.Pass}
	}
	return &compileFailure{http.StatusInternalServerError, "compile: " + err.Error(), ""}
}

func writeCompileError(w http.ResponseWriter, err error) {
	f := compileFailureFrom(err)
	writeError(w, f.status, f.msg, f.pass)
}

// rejectDraining refuses new work while the server drains: 503 with
// Connection: close, so a keep-alive client drops the connection and
// re-resolves instead of retrying into a process that is going away.
// (A 429 + Retry-After here would be a lie — it promises capacity that
// will never exist again.)
func (s *Server) rejectDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	w.Header().Set("Connection", "close")
	writeError(w, http.StatusServiceUnavailable, "draining", "")
	return true
}

// shedResponse rejects an over-budget request with 429 + a Retry-After
// derived from the route's observed drain rate (see retryAfterSeconds).
// A server that is draining answers 503 + Connection: close instead —
// retrying here is pointless.
func (s *Server) shedResponse(w http.ResponseWriter, route string) {
	if s.rejectDraining(w) {
		return
	}
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(route, time.Now())))
	writeError(w, http.StatusTooManyRequests, "server at capacity, retry later", "")
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.obs.Count("server_requests_total", 1)
	if s.rejectDraining(w) {
		return
	}
	incremental := r.URL.Query().Get("incremental") == "1"
	tenant := s.tenantFor(r)
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes)
	// The smallest buffer bufio has: it only has to give one byte back.
	// The JSON decoder's reads are larger than it and pass straight
	// through to the body.
	br := bufio.NewReaderSize(r.Body, 16)
	if isBatchBody(br) {
		s.handleCompileBatch(w, r, br, incremental, tenant)
		return
	}
	var req CompileRequest
	if !s.decodeFrom(w, br, &req) {
		return
	}
	release, shed := s.admit(r.Context(), "compile", tenant)
	if shed {
		s.shedResponse(w, "compile")
		return
	}
	if release == nil {
		writeError(w, 499, "request canceled while queued", "")
		return
	}
	defer release()

	resp, done, fail := s.compileOne(r.Context(), req, incremental)
	if fail != nil {
		writeError(w, fail.status, fail.msg, fail.pass)
		return
	}
	defer done()
	setOutcome(r.Context(), resp.Outcome, resp.LeaderID, resp.Cached)
	writeJSON(w, http.StatusOK, resp)
}

// isBatchBody peeks past leading whitespace to decide whether the
// compile body is a JSON array (batch form) or object (single form).
func isBatchBody(br *bufio.Reader) bool {
	for {
		b, err := br.ReadByte()
		if err != nil {
			return false
		}
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		}
		_ = br.UnreadByte()
		return b == '['
	}
}

// BatchItem is one element of a batch compile response. Status is the
// HTTP status this item would have drawn as a lone request; a batch
// always answers 200 with per-item verdicts — one unparseable source
// never voids its neighbors.
type BatchItem struct {
	Index  int              `json:"index"`
	Status int              `json:"status"`
	Error  string           `json:"error,omitempty"`
	Pass   string           `json:"pass,omitempty"`
	Result *CompileResponse `json:"result,omitempty"`
}

// BatchResponse is the POST /v1/compile result for an array body.
type BatchResponse struct {
	// RequestID is the batch's trace ID; each item additionally
	// carries its own (result.request_id) for cache attribution.
	RequestID string      `json:"request_id"`
	Items     []BatchItem `json:"items"`
	Succeeded int         `json:"succeeded"`
	Failed    int         `json:"failed"`
}

// handleCompileBatch compiles a JSON array of CompileRequests. Items
// run concurrently, each admitted (and possibly shed) individually
// under the same global and per-tenant budgets as lone requests, and
// each fails individually: the batch itself errors only when the body
// is not decodable JSON, empty, or over the item cap.
func (s *Server) handleCompileBatch(w http.ResponseWriter, r *http.Request, body io.Reader, incremental bool, tenant string) {
	var reqs []CompileRequest
	if !s.decodeFrom(w, body, &reqs) {
		return
	}
	if len(reqs) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch", "")
		return
	}
	if len(reqs) > s.cfg.MaxBatchItems {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d exceeds the %d-item limit", len(reqs), s.cfg.MaxBatchItems), "")
		return
	}
	s.obs.Count("server_batch_requests", 1)
	s.obs.Count("server_batch_items", int64(len(reqs)))
	items := make([]BatchItem, len(reqs))
	dones := make([]func(), len(reqs))
	defer func() {
		for _, done := range dones {
			if done != nil {
				done()
			}
		}
	}()
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			item := &items[i]
			item.Index = i
			// Each item gets its own request ID and telemetry slate so
			// concurrent items don't fight over the batch's outcome.
			ctx := telemetry.WithRequestID(r.Context(), telemetry.NewRequestID())
			ctx = context.WithValue(ctx, reqInfoKey{}, (*reqInfo)(nil))
			release, shed := s.admit(ctx, "compile", tenant)
			if shed {
				item.Status = http.StatusTooManyRequests
				item.Error = "server at capacity, retry later"
				return
			}
			if release == nil {
				item.Status = 499
				item.Error = "request canceled while queued"
				return
			}
			defer release()
			resp, done, fail := s.compileOne(ctx, reqs[i], incremental)
			if fail != nil {
				item.Status, item.Error, item.Pass = fail.status, fail.msg, fail.pass
				return
			}
			item.Status = http.StatusOK
			item.Result, dones[i] = resp, done
		}(i)
	}
	wg.Wait()
	resp := BatchResponse{RequestID: telemetry.RequestID(r.Context()), Items: items}
	for i := range items {
		if items[i].Status == http.StatusOK {
			resp.Succeeded++
		} else {
			resp.Failed++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// compileOne runs one compile request end to end (validation, cache
// lookup with optional peer fill, a view of the entry under this
// request's label) and builds its response. The caller has already
// admitted the request; failures come back as data so both the single
// and batch handlers can map them. The response reads scratch the view
// holds until done is called, after the response is encoded.
func (s *Server) compileOne(ctx context.Context, req CompileRequest, incremental bool) (resp *CompileResponse, done func(), fail *compileFailure) {
	if req.Source == "" {
		return nil, nil, &compileFailure{http.StatusBadRequest, "missing source", ""}
	}
	opt, err := compileOptions(req.Techniques)
	if err != nil {
		return nil, nil, &compileFailure{http.StatusBadRequest, err.Error(), ""}
	}
	if incremental && req.Baseline {
		return nil, nil, &compileFailure{http.StatusBadRequest,
			"incremental compilation does not apply to baseline (PFA) compiles", ""}
	}
	ctx, cancel := context.WithTimeout(ctx, s.deadline(req.TimeoutMS))
	defer cancel()

	label := req.Label
	if label == "" {
		label = "prog"
	}
	reqID := telemetry.RequestID(ctx)

	if req.Baseline {
		res, sv, err := s.baseline(ctx, req.Source)
		if err != nil {
			return nil, nil, compileFailureFrom(err)
		}
		return &CompileResponse{
			Label:         label,
			RequestID:     reqID,
			Outcome:       sv.outcome,
			LeaderID:      sv.leaderID,
			Cached:        sv.cached,
			ParallelLoops: res.ParallelLoops(),
			Verdicts:      verdicts(res.Loops),
			CodegenFactor: res.Factor,
		}, func() {}, nil
	}

	if incremental {
		opt.UnitMemo = s.memo
	}
	key := core.KeyOf(req.Source, opt)
	e, sv, err := s.compileCached(ctx, key, req.Source, opt)
	if err != nil {
		return nil, nil, compileFailureFrom(err)
	}
	v, fail := s.view(e, label)
	if fail != nil {
		return nil, nil, fail
	}
	// Unit-reuse counts are meaningful only when this request's own
	// compile ran against the memo; a whole-program cache hit or a ride
	// on another request's compile reports the stronger outcome instead.
	if incremental && sv.reused > 0 {
		sv.outcome = telemetry.OutcomeIncrementalHit
		s.obs.Count("server_incremental_hits", 1)
	}
	r := replies.Get().(*reply)
	r.view = v
	r.resp = CompileResponse{
		Label:           label,
		RequestID:       reqID,
		Outcome:         sv.outcome,
		LeaderID:        sv.leaderID,
		Cached:          sv.cached,
		ParallelLoops:   (&core.Result{Loops: v.Loops}).ParallelLoops(),
		Incremental:     incremental,
		UnitsReused:     sv.reused,
		UnitsRecompiled: sv.recompiled,
		Verdicts:        appendVerdicts(r.resp.Verdicts, v.Loops),
		Decisions:       v.Decisions,
		Report:          appendReports(r.resp.Report, v.Report.Events),
	}
	if incremental {
		r.resp.ProgramHash = key.SourceHash()
	}
	return &r.resp, r.release, nil
}

// reply is what one compile response is built on, kept from one request
// to the next: the entry's view, and the response with the arrays of its
// verdict and report lists.
type reply struct {
	resp CompileResponse
	view *fabric.View
}

var replies = sync.Pool{New: func() any { return new(reply) }}

// release hands the view and the reply back once the response is
// encoded, holding no string of the entry.
func (r *reply) release() {
	r.view.Release()
	verdicts, reports := r.resp.Verdicts, r.resp.Report
	clear(verdicts)
	clear(reports)
	*r = reply{resp: CompileResponse{Verdicts: verdicts[:0], Report: reports[:0]}}
	replies.Put(r)
}

// view decodes e's View under label for a compile or explain response.
// The cache holds only entries this node encoded or verified, so one
// that does not decode is a server fault: counted, and answered 500.
func (s *Server) view(e *cacheEntry, label string) (*fabric.View, *compileFailure) {
	v, err := fabric.DecodeView(e.entry, label)
	if err != nil {
		s.obs.Count("server_entry_decode_errors", 1)
		return nil, &compileFailure{http.StatusInternalServerError, "stored entry: " + err.Error(), ""}
	}
	return v, nil
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	s.obs.Count("server_requests_total", 1)
	var req ExplainRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Source == "" {
		writeError(w, http.StatusBadRequest, "missing source", "")
		return
	}
	if s.rejectDraining(w) {
		return
	}
	release, shed := s.admit(r.Context(), "explain", s.tenantFor(r))
	if shed {
		s.shedResponse(w, "explain")
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
	reqID := telemetry.RequestID(ctx)
	opt := core.PolarisOptions()
	e, sv, err := s.compileCached(ctx, core.KeyOf(req.Source, opt), req.Source, opt)
	if err != nil {
		writeCompileError(w, err)
		return
	}
	v, fail := s.view(e, label)
	if fail != nil {
		writeError(w, fail.status, fail.msg, fail.pass)
		return
	}
	defer v.Release()
	setOutcome(ctx, sv.outcome, sv.leaderID, sv.cached)

	resp := ExplainResponse{
		Label:     label,
		RequestID: reqID,
		Outcome:   sv.outcome,
		LeaderID:  sv.leaderID,
	}
	finals := obsv.FinalDecisions(v.Decisions, "")
	if req.Loop != "" {
		if line := obsv.ExplainLoop(finals, req.Loop); line != "" {
			resp.Lines = []string{line}
		}
		if len(resp.Lines) == 0 {
			writeError(w, http.StatusNotFound, "no loop matches "+req.Loop, "")
			return
		}
	} else {
		resp.Lines = obsv.ExplainAll(finals)
		if len(resp.Lines) == 0 {
			writeError(w, http.StatusNotFound, "no loops found", "")
			return
		}
	}
	if req.Verbose || req.Loop != "" {
		for _, d := range v.Decisions {
			if d.Loop != "" && obsv.MatchLoop(d, req.Loop) {
				resp.Trail = append(resp.Trail, d)
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

func verdicts(loops []core.LoopReport) []LoopVerdict { return appendVerdicts(nil, loops) }

// appendVerdicts appends the loops' verdicts to dst; the list is never
// nil, since a response spells no loops [], not null.
func appendVerdicts(dst []LoopVerdict, loops []core.LoopReport) []LoopVerdict {
	if dst == nil {
		dst = make([]LoopVerdict, 0, len(loops))
	}
	for _, l := range loops {
		dst = append(dst, LoopVerdict{
			ID: l.ID, Unit: l.Unit, Index: l.Index, Depth: l.Depth,
			Parallel: l.Parallel, RunTimeTest: l.RunTimeTest, Reason: l.Reason,
		})
	}
	return dst
}

func appendReports(dst []PassReport, events []obsv.Span) []PassReport {
	for _, ev := range events {
		dst = append(dst, PassReport{Pass: ev.Pass, DurationNS: ev.DurationNS, Mutations: ev.Mutations})
	}
	return dst
}
