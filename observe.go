package polaris

import (
	"io"

	"polaris/internal/obsv"
)

// Observer collects structured observability data across compilations
// and executions: per-pass spans, per-loop decision records (which
// technique enabled a DOALL, which dependence or symbolic fact blocked
// one), and runtime execution metrics (per-loop cycles, parallel
// coverage, speculation outcomes). One Observer may be shared by
// concurrent Compile and Execute calls; all methods are safe for
// concurrent use.
//
// Attach it to a compilation with WithObserver and to an execution via
// ExecOptions.Observer. Records are tagged with the compilation's
// trace label (WithTraceLabel) or the execution's ExecOptions.Label.
type Observer struct {
	inner *obsv.Observer
}

// NewObserver returns an empty observer.
func NewObserver() *Observer { return &Observer{inner: obsv.NewObserver()} }

// StreamTo mirrors every record to w as trace-schema v2 JSONL (one
// versioned envelope per line, with a global sequence number assigned
// under the writer lock, so lines are totally ordered even when many
// goroutines share the observer). The schema is documented in
// DESIGN.md §5b.
func (o *Observer) StreamTo(w io.Writer) {
	o.inner.SetTrace(obsv.NewTraceWriter(w))
}

// TraceErr returns the first error the trace stream hit, if any.
func (o *Observer) TraceErr() error { return o.inner.TraceErr() }

// WithObserver attaches the observer to a compilation: every pass
// reports a span, and every analyzed loop reports decision records
// culminating in a final verdict record.
func WithObserver(o *Observer) Option {
	return func(c *compileConfig) {
		if o != nil {
			c.observer = o.inner
		}
	}
}

// LoopDecision is one per-loop decision record: the contribution of a
// single analysis pass, or (Final) the loop's verdict.
type LoopDecision struct {
	// Label is the compilation label; Unit the program unit; Loop the
	// stable loop ID ("MAIN/L30"); Index the DO variable; Depth the
	// nesting depth.
	Label, Unit, Loop, Index string
	Depth                    int
	// Pass names the reporting analysis ("dependence",
	// "privatization", "reduction", "lrpd", "verdict",
	// "strength-reduction", ...).
	Pass string
	// Verdict is "doall", "serial", or "lrpd" on final records.
	Verdict string
	// Technique names the enabling technique(s); Blocker the blocking
	// dependence or construct; Detail is free-form context.
	Technique, Blocker, Detail string
	// Evidence lists supporting facts (unanalyzable arrays, privatized
	// variables, reduction candidates, ...).
	Evidence []string
	// Final marks the loop's verdict record: one per loop and
	// compilation, recorded after the last pass.
	Final bool
}

func publicDecision(d obsv.Decision) LoopDecision {
	return LoopDecision{
		Label: d.Label, Unit: d.Unit, Loop: d.Loop, Index: d.Index,
		Depth: d.Depth, Pass: d.Pass, Verdict: d.Verdict,
		Technique: d.Technique, Blocker: d.Blocker, Detail: d.Detail,
		Evidence: append([]string(nil), d.Evidence...), Final: d.Final,
	}
}

// Decisions returns every decision record for the label (all labels
// when label is empty), in emission order.
func (o *Observer) Decisions(label string) []LoopDecision {
	var out []LoopDecision
	for _, d := range o.inner.Decisions() {
		if label == "" || d.Label == label {
			out = append(out, publicDecision(d))
		}
	}
	return out
}

// FinalDecisions returns the verdict record of every loop compiled
// under the label, in program order.
func (o *Observer) FinalDecisions(label string) []LoopDecision {
	var out []LoopDecision
	for _, d := range o.inner.FinalDecisions(label) {
		out = append(out, publicDecision(d))
	}
	return out
}

// Explanations renders one human-readable line per loop compiled under
// the label ("MAIN/L30 DO I: DOALL — ..."), indented by nesting depth.
func (o *Observer) Explanations(label string) []string {
	return o.inner.Explanations(label)
}

// Explain renders the explanation for one loop, matched by full ID
// ("MAIN/L30"), bare label ("L30"), or index variable. Empty when no
// loop matches.
func (o *Observer) Explain(label, loop string) string {
	return o.inner.Explain(label, loop)
}

// Trail returns the full decision trail — per-pass evidence records
// plus final verdicts — of every loop matching the query (full ID,
// bare "L30" label, or index variable) under the label.
func (o *Observer) Trail(label, loop string) []LoopDecision {
	var out []LoopDecision
	for _, d := range o.inner.Decisions() {
		if label != "" && d.Label != label {
			continue
		}
		if d.Loop == "" || !obsv.MatchLoop(d, loop) {
			continue
		}
		out = append(out, publicDecision(d))
	}
	return out
}

// Counters snapshots the named event counters ("loops_analyzed",
// "loops_doall", ...).
func (o *Observer) Counters() map[string]int64 { return o.inner.Counters() }

// LoopStat is the runtime execution metric of one parallel loop.
type LoopStat struct {
	// Loop is the stable loop ID shared with the decision records.
	Loop string
	// Kind is "doall" or "lrpd".
	Kind string
	// Execs counts loop entries; SerialCycles the serial-equivalent
	// body work; ParallelCycles the simulated parallel time charged.
	Execs, SerialCycles, ParallelCycles int64
	// PDPasses / PDFailures count speculation outcomes (lrpd only).
	PDPasses, PDFailures int64
}

// RunStats summarizes one simulated execution recorded through
// ExecOptions.Observer.
type RunStats struct {
	Label      string
	Processors int
	// Cycles is the simulated time; Work the serial-equivalent total;
	// ParallelWork the portion executed inside parallel regions.
	Cycles, Work, ParallelWork int64
	// Coverage is ParallelWork/Work — the parallel-coverage fraction.
	Coverage float64
	// PDPasses / PDFailures count speculative loop outcomes.
	PDPasses, PDFailures int64
	// Loops is the per-loop breakdown, in stable order.
	Loops []LoopStat
}

// Runs returns every recorded execution, in order.
func (o *Observer) Runs() []RunStats {
	var out []RunStats
	for _, r := range o.inner.Runs() {
		rs := RunStats{
			Label: r.Label, Processors: r.Processors,
			Cycles: r.TotalCycles, Work: r.TotalWork,
			ParallelWork: r.ParallelWork, Coverage: r.Coverage,
			PDPasses: r.PDPasses, PDFailures: r.PDFailures,
		}
		for _, lm := range r.Loops {
			rs.Loops = append(rs.Loops, LoopStat{
				Loop: lm.Loop, Kind: lm.Kind, Execs: lm.Execs,
				SerialCycles: lm.SerialCycles, ParallelCycles: lm.ParallelCycles,
				PDPasses: lm.PDPasses, PDFailures: lm.PDFailures,
			})
		}
		out = append(out, rs)
	}
	return out
}
