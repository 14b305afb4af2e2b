// Package polaris is a from-scratch Go reproduction of the Polaris
// parallelizing compiler ("Restructuring Programs for High-Speed
// Computers with Polaris", Blume et al., ICPP 1996): a source-to-source
// automatic restructurer for a Fortran 77 subset.
//
// The package is a façade over the internal subsystems. The typical
// flow is:
//
//	prog, err := polaris.Parse(src)
//	res, err := polaris.Compile(ctx, prog)         // full technique set
//	err = res.Emit(os.Stdout)                      // restructured Fortran
//	run, err := polaris.Execute(res, polaris.ExecOptions{Processors: 8})
//	fmt.Println(run.Cycles)                        // simulated time
//
// Compile takes functional options: WithTechniques selects a subset of
// passes, WithBaseline compiles at the 1996 vendor (PFA) level the
// paper compares against, WithObserver records per-pass spans and
// per-loop decisions (Observer.StreamTo streams them as JSONL),
// WithStats collects dependence-test counts, and WithProcessors picks
// the default simulated machine size. Every compilation runs through
// the instrumented pass manager, so Result.Report carries per-pass
// wall time and mutation counts.
//
// Technique sets: the default applies everything the paper describes —
// inline expansion, generalized induction-variable substitution,
// reduction recognition (single-address and histogram), scalar and
// array privatization, symbolic dependence analysis with the range
// test and loop-order permutation, and LRPD (run-time PD test)
// candidate flagging.
//
// Hardware substitution: execution happens on a simulated
// shared-memory multiprocessor (package internal/machine) with a
// deterministic cycle model, standing in for the paper's 8-processor
// SGI Challenge; see DESIGN.md.
package polaris

import (
	"context"
	"fmt"
	"time"

	"polaris/internal/core"
	"polaris/internal/deps"
	"polaris/internal/interp"
	"polaris/internal/ir"
	"polaris/internal/machine"
	"polaris/internal/parser"
	"polaris/internal/pfa"
)

// Program is a parsed Fortran program.
type Program struct {
	ir *ir.Program
}

// Parse parses Fortran-subset source into a Program. Failures are
// *parser.ParseError values carrying line and column.
func Parse(src string) (*Program, error) {
	p, err := parser.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	return &Program{ir: p}, nil
}

// Source renders the program back to Fortran.
func (p *Program) Source() string { return p.ir.Fortran() }

// LoopInfo describes one analyzed loop: its ID ("MAIN/L30"), unit,
// index variable, nesting depth, whether it is a DOALL, the arrays it
// is speculatively tested over at run time (RunTimeTest, the LRPD/PD
// test; empty otherwise) and the reason for its verdict.
type LoopInfo = core.LoopReport

// PassEvent reports one pipeline pass of a compilation.
type PassEvent struct {
	// Pass is the pass name (for example "inline" or
	// "dependence-analysis").
	Pass string
	// Duration is the pass's wall-clock time.
	Duration time.Duration
	// Mutations counts IR changes by kind (calls_inlined,
	// variables_substituted, loops_annotated, verdict_flips, ...).
	Mutations map[string]int64
}

// PipelineReport is the pass manager's instrumentation for one
// compilation, in pipeline order.
type PipelineReport struct {
	// Label is the compilation label set by WithTraceLabel.
	Label string
	// Events lists the executed passes in order.
	Events []PassEvent
	// Total is the summed pass wall time.
	Total time.Duration
}

// Result is a compiled (restructured and annotated) program.
type Result struct {
	inner *core.Result
	// CodegenFactor models back-end code quality (1.0 for Polaris; set
	// by the baseline's heuristics for PFA).
	CodegenFactor float64
	// Loops reports the per-loop verdicts in program order, each unit's
	// loops outermost first. It is the compile's own list, which Emit
	// and Summary read too: treat it as read-only.
	Loops []LoopInfo
	// InlinedCalls counts expanded call sites.
	InlinedCalls int
	// InductionVariables lists substituted induction variables
	// (qualified by unit).
	InductionVariables []string
	// Report carries the pass manager's per-pass timings and mutation
	// counts (nil for baseline compilations, which bypass the Polaris
	// pipeline).
	Report *PipelineReport
	// UnitsReused / UnitsRecompiled report the incremental split when
	// the compilation ran with WithIncremental: how many program units
	// were served from the unit memo versus re-run through the per-unit
	// passes. Both are zero without a memo.
	UnitsReused     int
	UnitsRecompiled int

	// processors is the WithProcessors default for Execute.
	processors int
}

func wrapResult(res *core.Result, factor float64) *Result {
	out := &Result{inner: res, CodegenFactor: factor, Loops: res.Loops,
		InlinedCalls: res.InlinedCalls, InductionVariables: res.InductionVars,
		UnitsReused: res.UnitsReused, UnitsRecompiled: res.UnitsRecompiled}
	if res.Report != nil {
		rep := &PipelineReport{Label: res.Report.Label, Total: res.Report.Total()}
		for _, ev := range res.Report.Events {
			rep.Events = append(rep.Events, PassEvent{
				Pass:      ev.Pass,
				Duration:  time.Duration(ev.DurationNS),
				Mutations: ev.Mutations,
			})
		}
		out.Report = rep
	}
	return out
}

// Compile runs the restructuring pipeline on the program under ctx and
// returns the annotated result. The input program is not modified.
// With no options it applies the paper's full technique set; see
// Option for technique selection, baseline mode, observation, and stats.
//
// Cancellation is honored between and inside passes: when ctx is
// canceled, Compile returns ctx.Err() promptly. Pass failures surface
// as *core.PipelineError naming the failed pass.
func Compile(ctx context.Context, p *Program, opts ...Option) (*Result, error) {
	cfg := defaultCompileConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.baseline {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := pfa.Compile(p.ir)
		if err != nil {
			return nil, err
		}
		out := wrapResult(res.Result, res.Factor)
		// The baseline reuses the pipeline machinery internally, but its
		// instrumentation describes the vendor model, not the Polaris
		// pipeline; keep the documented "nil for baseline" contract.
		out.Report = nil
		out.processors = cfg.processors
		return out, nil
	}
	copt := coreOptions(cfg.techniques)
	var dstats deps.Stats
	if cfg.stats != nil {
		copt.Stats = &dstats
	}
	copt.TraceLabel = cfg.traceLabel
	copt.Observer = cfg.observer
	if cfg.memo != nil {
		copt.UnitMemo = cfg.memo.inner
	}
	res, err := core.CompileContext(ctx, p.ir, copt)
	if err != nil {
		return nil, err
	}
	if cfg.stats != nil {
		cfg.stats.fill(dstats)
	}
	out := wrapResult(res, 1.0)
	out.processors = cfg.processors
	return out, nil
}

// Techniques selects individual passes for WithTechniques.
type Techniques struct {
	Inline                   bool
	Induction                bool
	SimpleInduction          bool
	Reductions               bool
	HistogramReductions      bool
	ArrayPrivatization       bool
	RangeTest                bool
	LoopPermutation          bool
	RunTimeTest              bool
	StrengthReduction        bool
	LoopNormalization        bool
	InterproceduralConstants bool
}

// FullTechniques returns the paper's complete set.
func FullTechniques() Techniques {
	return Techniques{
		Inline: true, Induction: true, Reductions: true,
		HistogramReductions: true, ArrayPrivatization: true,
		RangeTest: true, LoopPermutation: true, RunTimeTest: true,
		StrengthReduction: true, LoopNormalization: true,
		InterproceduralConstants: true,
	}
}

// Summary renders a human-readable per-loop report.
func (r *Result) Summary() string { return r.inner.Summary() }

// ParallelLoops counts DOALL verdicts.
func (r *Result) ParallelLoops() int { return r.inner.ParallelLoops() }

// ExecOptions configures simulated execution.
type ExecOptions struct {
	// Processors on the simulated machine (default: the result's
	// WithProcessors value, or 8).
	Processors int
	// Serial disables parallel execution (baseline timing).
	Serial bool
	// Validate runs a DOALL's iterations in reverse order, to surface
	// order dependence. A speculative loop still runs forward, one
	// chunk after another: the PD test reads the serial order.
	Validate bool
	// Concurrent runs a DOALL's chunks, the same ones the simulated
	// machine charges, on real goroutines with partial reductions
	// merged at the join. The cycle charge is the same as without it.
	// A speculative loop still runs forward, one chunk after another.
	Concurrent bool
	// ReductionForm selects the parallel reduction implementation:
	// "private" (default), "blocked", or "expanded" — the three forms
	// of the paper's Section 3.2.
	ReductionForm string
	// Observer, when non-nil, records the run's metrics (per-loop
	// cycles, parallel coverage, speculation outcomes) under Label.
	Observer *Observer
	// Label tags the run in the observer's records (typically the
	// program name; matches the compilation's WithTraceLabel).
	Label string
}

// RunResult reports a simulated execution.
type RunResult struct {
	// Cycles is the simulated execution time.
	Cycles int64
	// Work is the total serial-equivalent work executed.
	Work int64
	// ParallelWork is the portion of Work executed inside successful
	// parallel regions; Coverage is ParallelWork/Work.
	ParallelWork int64
	Coverage     float64
	// ParallelLoopExecs counts DOALL loop executions, one per
	// execution in every mode.
	ParallelLoopExecs int64
	// PDTestPasses / PDTestFailures count speculative loop outcomes.
	PDTestPasses   int64
	PDTestFailures int64
	// Probe reads a scalar in a COMMON block after execution.
	Probe func(block, name string) (float64, bool)
}

// Execute runs a compiled program on the simulated machine.
func Execute(r *Result, opt ExecOptions) (*RunResult, error) {
	return ExecuteContext(context.Background(), r, opt)
}

// ExecuteContext runs a compiled program on the simulated machine
// under ctx; a canceled context aborts the execution loop promptly.
func ExecuteContext(ctx context.Context, r *Result, opt ExecOptions) (*RunResult, error) {
	if opt.Processors <= 0 {
		opt.Processors = r.processors
	}
	return execute(ctx, r.inner.Program, r.CodegenFactor, opt)
}

// ExecuteProgram runs an unrestructured program (serial semantics
// unless its loops carry annotations).
func ExecuteProgram(p *Program, opt ExecOptions) (*RunResult, error) {
	return ExecuteProgramContext(context.Background(), p, opt)
}

// ExecuteProgramContext is ExecuteProgram under a cancellation
// context.
func ExecuteProgramContext(ctx context.Context, p *Program, opt ExecOptions) (*RunResult, error) {
	return execute(ctx, p.ir, 1.0, opt)
}

func execute(ctx context.Context, prog *ir.Program, factor float64, opt ExecOptions) (*RunResult, error) {
	procs := opt.Processors
	if procs <= 0 {
		procs = 8
	}
	model := machine.Default().WithProcessors(procs).WithCodegenFactor(factor)
	switch opt.ReductionForm {
	case "", "private":
		model = model.WithReductions(machine.ReductionPrivate)
	case "blocked":
		model = model.WithReductions(machine.ReductionBlocked)
	case "expanded":
		model = model.WithReductions(machine.ReductionExpanded)
	default:
		return nil, fmt.Errorf("polaris: unknown reduction form %q", opt.ReductionForm)
	}
	in := interp.New(prog, model)
	in.Parallel = !opt.Serial
	in.Validate = opt.Validate
	in.Concurrent = opt.Concurrent
	if err := in.RunContext(ctx); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("polaris: execution: %w", err)
	}
	if opt.Observer != nil {
		opt.Observer.inner.Run(in.Metrics(opt.Label))
	}
	return &RunResult{
		Cycles:            in.Time(),
		Work:              in.Work(),
		ParallelWork:      in.ParallelWork(),
		Coverage:          in.Coverage(),
		ParallelLoopExecs: in.ParallelLoopExecs,
		PDTestPasses:      in.LRPDPasses,
		PDTestFailures:    in.LRPDFailures,
		Probe:             in.Probe,
	}, nil
}

// Speedup compiles and runs the program both serially and in parallel
// on p processors and returns serial-cycles / parallel-cycles — the
// quantity Figure 7 plots.
func Speedup(src string, processors int) (float64, error) {
	ctx := context.Background()
	prog, err := Parse(src)
	if err != nil {
		return 0, err
	}
	serial, err := ExecuteProgram(prog, ExecOptions{Serial: true})
	if err != nil {
		return 0, err
	}
	res, err := Compile(ctx, prog)
	if err != nil {
		return 0, err
	}
	par, err := Execute(res, ExecOptions{Processors: processors})
	if err != nil {
		return 0, err
	}
	return float64(serial.Cycles) / float64(par.Cycles), nil
}
