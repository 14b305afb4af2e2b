// Package obsv is the observability core of the Polaris reproduction:
// a lightweight event and metrics layer shared by the compiler pipeline,
// the interpreter, and the suite runner.
//
// Three record kinds flow through an Observer:
//
//   - Decision: one structured per-loop decision record from an analysis
//     pass — which technique contributed what verdict, the blocking
//     dependence or symbolic fact involved, and (for final records) the
//     technique that ultimately enabled or vetoed DOALL. These are the
//     provenance behind every verdict in the paper's evaluation.
//   - Span: one pass execution (name, wall time, mutation counts) — the
//     pass manager's one record of it, also held in the PipelineReport.
//   - Run/LoopMetric: runtime execution metrics from the interpreter —
//     per-loop serial and parallel cycles, parallel coverage fraction,
//     and LRPD pass/fail counts.
//
// An Observer aggregates everything in memory (for `polaris explain`
// and the metrics-reconciliation tests) and optionally streams each
// record as one JSON line through a TraceWriter (trace schema v2, see
// trace.go). Both are safe for concurrent use: compilations and
// executions running on different goroutines may share one Observer and
// one TraceWriter, with a single writer-side sequence number keeping
// the emitted lines totally ordered.
package obsv

import (
	"sort"
	"sync"
)

// Decision is one per-loop decision record contributed by an analysis
// pass. Records with Final set carry the loop's overall verdict, one per
// loop and compilation; the others are the per-pass evidence trail
// behind it.
type Decision struct {
	// Label identifies the compilation (typically the program name).
	Label string `json:"label,omitempty"`
	// Unit is the program unit holding the loop.
	Unit string `json:"unit,omitempty"`
	// Loop is the stable loop ID ("MAIN/L30"); empty for unit-level
	// records (inline expansion, induction substitution).
	Loop string `json:"loop,omitempty"`
	// Index is the loop index variable.
	Index string `json:"index,omitempty"`
	// Depth is the loop nesting depth (0 = outermost).
	Depth int `json:"depth,omitempty"`
	// Pass names the contributing pass ("dependence", "privatization",
	// "reduction", "lrpd", "induction", "inline", "strength-reduction",
	// or "verdict" for final records).
	Pass string `json:"pass"`
	// Verdict is "doall", "serial", or "lrpd" on final records.
	Verdict string `json:"verdict,omitempty"`
	// Technique names what enabled the verdict ("range test with
	// permuted loop order [K J I]; array privatization of WRK").
	Technique string `json:"technique,omitempty"`
	// Blocker names the specific blocking dependence or fact for serial
	// verdicts ("assumed dependence on X").
	Blocker string `json:"blocker,omitempty"`
	// Detail is the free-form reason string of the deciding pass.
	Detail string `json:"detail,omitempty"`
	// Evidence lists the facts behind the record: privatized variables,
	// reduction clauses, unanalyzable arrays, solved induction
	// variables.
	Evidence []string `json:"evidence,omitempty"`
	// Final marks the loop's overall verdict record: the one its
	// compilation records after the last pass that may change it.
	Final bool `json:"final,omitempty"`
}

// Span is one pass execution inside one compilation.
type Span struct {
	// Label identifies the compilation.
	Label string `json:"label,omitempty"`
	// Pass is the pass name.
	Pass string `json:"pass"`
	// Seq is the pass position in its pipeline.
	Seq int `json:"seq"`
	// DurationNS is the pass wall time in nanoseconds.
	DurationNS int64 `json:"duration_ns"`
	// Mutations counts IR changes by kind.
	Mutations map[string]int64 `json:"mutations,omitempty"`
	// Err is the pass failure message, empty on success.
	Err string `json:"error,omitempty"`
}

// LoopMetric is the runtime execution metric of one loop across one
// interpreter run: how it executed and what it cost.
type LoopMetric struct {
	// Label identifies the run (typically the program name).
	Label string `json:"label,omitempty"`
	// Loop is the stable loop ID matching the compile-time Decision.
	Loop string `json:"loop"`
	// Kind is "doall", "lrpd", or "serial".
	Kind string `json:"kind"`
	// Execs counts loop executions (a loop inside another loop executes
	// many times).
	Execs int64 `json:"execs"`
	// SerialCycles is the serial-equivalent body work executed.
	SerialCycles int64 `json:"serial_cycles"`
	// ParallelCycles is the simulated time actually charged (equals
	// SerialCycles for serial execution).
	ParallelCycles int64 `json:"parallel_cycles"`
	// PDPasses / PDFailures count speculative LRPD outcomes.
	PDPasses   int64 `json:"pd_passes,omitempty"`
	PDFailures int64 `json:"pd_failures,omitempty"`
}

// RunMetrics aggregates one interpreter run.
type RunMetrics struct {
	// Label identifies the run.
	Label string `json:"label,omitempty"`
	// Processors is the simulated machine size.
	Processors int `json:"processors,omitempty"`
	// TotalCycles is the simulated execution time.
	TotalCycles int64 `json:"total_cycles"`
	// TotalWork is the serial-equivalent work executed.
	TotalWork int64 `json:"total_work"`
	// ParallelWork is the portion of TotalWork executed inside DOALL
	// regions or successfully speculated LRPD regions.
	ParallelWork int64 `json:"parallel_work"`
	// Coverage is ParallelWork / TotalWork (0 when TotalWork is 0) —
	// the parallel-coverage fraction the paper's speedups rest on.
	Coverage float64 `json:"parallel_coverage"`
	// PDPasses / PDFailures count speculative loop outcomes.
	PDPasses   int64 `json:"pd_passes,omitempty"`
	PDFailures int64 `json:"pd_failures,omitempty"`
	// Loops holds the per-loop metrics, sorted by loop ID.
	Loops []LoopMetric `json:"loops,omitempty"`
}

// Observer collects decision records, pass spans, counters, and runtime
// metrics for one or many compilations and executions. The zero value
// is not usable; call NewObserver. All methods are safe for concurrent
// use. A nil *Observer is valid everywhere and records nothing, so call
// sites need no guards.
type Observer struct {
	mu        sync.Mutex
	trace     *TraceWriter
	next      *Observer
	counters  map[string]int64
	decisions []Decision
	spans     []Span
	runs      []RunMetrics
}

// NewObserver returns an empty Observer with no trace attached.
func NewObserver() *Observer {
	return &Observer{counters: map[string]int64{}}
}

// NewCapture returns an observer that records every event locally and
// forwards each one, live and in order, to next (which may be nil).
// The compile service and the unit memo thread a capture through a
// compilation so they can keep the per-loop Decision provenance
// alongside the memoized result and replay it later, without
// disturbing the downstream observer's live trace stream.
func NewCapture(next *Observer) *Observer {
	return &Observer{counters: map[string]int64{}, next: next}
}

// SetTrace attaches a trace writer; every subsequently recorded event
// is also emitted as one schema-v2 JSON line. Many observers may share
// one TraceWriter: its writer-side sequence number keeps the combined
// stream totally ordered.
func (o *Observer) SetTrace(t *TraceWriter) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.trace = t
	o.mu.Unlock()
}

// TraceErr returns the attached trace writer's first error, if any.
func (o *Observer) TraceErr() error {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	t := o.trace
	o.mu.Unlock()
	return t.Err()
}

// Count adds delta to a named counter (expvar-style; exported for soak
// monitoring).
func (o *Observer) Count(name string, delta int64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.counters[name] += delta
	o.mu.Unlock()
	o.next.Count(name, delta)
}

// Counters returns a copy of the counter map.
func (o *Observer) Counters() map[string]int64 {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]int64, len(o.counters))
	for k, v := range o.counters {
		out[k] = v
	}
	return out
}

// Decision records one per-loop decision record.
func (o *Observer) Decision(d Decision) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.grow(1)
	o.decisions = append(o.decisions, d)
	t := o.trace
	o.mu.Unlock()
	t.EmitDecision(d)
	o.next.Decision(d)
}

// ReplayDecisions records ds in order, each under label: a
// compilation's final records, or the replay of provenance kept beside a
// cached or memoized result. The records are
// appended in one reservation of len(ds); the trace writer, then the
// next observer, receive the whole batch in the same order.
func (o *Observer) ReplayDecisions(ds []Decision, label string) {
	if o == nil || len(ds) == 0 {
		return
	}
	o.mu.Lock()
	at := len(o.decisions)
	o.grow(len(ds))
	o.decisions = append(o.decisions, ds...)
	o.replayed(at, label)
}

// Reserve makes room for n more records, in this observer and the ones
// it forwards to, each list grown once to exactly what it will hold: a
// compile that knows how many records it will replay reserves them
// before the first, where grow would double the list past its end.
func (o *Observer) Reserve(n int) {
	if o == nil || n <= 0 {
		return
	}
	o.mu.Lock()
	if len(o.decisions)+n > cap(o.decisions) {
		ds := make([]Decision, len(o.decisions), len(o.decisions)+n)
		copy(ds, o.decisions)
		o.decisions = ds
	}
	o.mu.Unlock()
	o.next.Reserve(n)
}

// grow makes room for n more records, called with o.mu held. It at
// least doubles the list, where append and slices.Grow add about a
// quarter to a long one: an observed edit compile replays a few records
// at a time, per clean unit and pass, into a list thousands long.
func (o *Observer) grow(n int) {
	if len(o.decisions)+n <= cap(o.decisions) {
		return
	}
	ds := make([]Decision, len(o.decisions), max(2*cap(o.decisions), len(o.decisions)+n))
	copy(ds, o.decisions)
	o.decisions = ds
}

// replayed finishes a replay, called with o.mu held and the batch at
// o.decisions[at:]: it labels the batch, unlocks, and hands the batch to
// the trace writer, then to the next observer.
func (o *Observer) replayed(at int, label string) {
	// Records are never written after this, so the batch can be read
	// outside the lock even if a later append moves the slice.
	batch := o.decisions[at:]
	for i := range batch {
		batch[i].Label = label
	}
	t := o.trace
	o.mu.Unlock()
	for _, d := range batch {
		t.EmitDecision(d)
	}
	o.next.ReplayDecisions(batch, label)
}

// Span records one pass execution.
func (o *Observer) Span(s Span) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.spans = append(o.spans, s)
	t := o.trace
	o.mu.Unlock()
	t.EmitSpan(s)
	o.next.Span(s)
}

// Run records one interpreter run's metrics.
func (o *Observer) Run(r RunMetrics) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.runs = append(o.runs, r)
	t := o.trace
	o.mu.Unlock()
	t.EmitRun(r)
	o.next.Run(r)
}

// Decisions returns a copy of all recorded decision records, in
// recording order.
func (o *Observer) Decisions() []Decision {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Decision(nil), o.decisions...)
}

// TakeDecisions returns the recorded decision records without copying
// them and leaves the observer holding none: the caller owns the list
// from here on. It is for a private capture that has finished
// recording (a compile cache's leader encodes the list into its entry,
// or keeps it beside the entry); an observer others still read should
// be asked for Decisions.
func (o *Observer) TakeDecisions() []Decision {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	ds := o.decisions
	o.decisions = nil
	return ds
}

// Spans returns a copy of all recorded pass spans.
func (o *Observer) Spans() []Span {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Span(nil), o.spans...)
}

// Runs returns a copy of all recorded run metrics.
func (o *Observer) Runs() []RunMetrics {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]RunMetrics(nil), o.runs...)
}

// FinalDecisions returns the final (verdict) record of every loop for
// the given label ("" matches every label), in program order: a
// compilation records each loop's verdict once, after its last pass,
// units in sequence and loops by ID within each unit.
func (o *Observer) FinalDecisions(label string) []Decision {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return FinalDecisions(o.decisions, label)
}

// FinalDecisions is the method of the same name over a decision list
// held outside an observer (a cached entry's provenance), in the list's
// order; ds is only read.
func FinalDecisions(ds []Decision, label string) []Decision {
	var out []Decision
	for _, d := range ds {
		if d.Final && (label == "" || d.Label == label) {
			out = append(out, d)
		}
	}
	return out
}

// SortLoopMetrics orders metrics by (label, loop) for stable output.
func SortLoopMetrics(ms []LoopMetric) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Label != ms[j].Label {
			return ms[i].Label < ms[j].Label
		}
		return ms[i].Loop < ms[j].Loop
	})
}
