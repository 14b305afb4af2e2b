// Package core is the Polaris driver: it runs the paper's pass pipeline
// — inline expansion, induction variable substitution, reduction
// recognition, range propagation, scalar and array privatization,
// symbolic dependence analysis with the range test, and run-time (LRPD)
// candidate flagging — over a program, annotating every DO loop with a
// parallelization verdict that the interpreter and code generator
// consume.
//
// The driver is built on the instrumented pass manager of package
// passes: each technique is a named Pass registered in pipeline order,
// and every compilation produces a PipelineReport with per-pass wall
// time and IR-mutation counts (optionally streamed as JSONL trace
// events).
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"polaris/internal/deps"
	"polaris/internal/induction"
	"polaris/internal/inline"
	"polaris/internal/interproc"
	"polaris/internal/ir"
	"polaris/internal/normalize"
	"polaris/internal/obsv"
	"polaris/internal/passes"
	"polaris/internal/priv"
	"polaris/internal/reduction"
	"polaris/internal/rng"
	"polaris/internal/strength"
	"polaris/internal/symbolic"
)

// Options selects the technique set. PolarisOptions enables everything
// the paper describes; see package pfa for the vendor baseline.
type Options struct {
	Inline             bool
	Induction          bool
	SimpleInduction    bool // vendor-level induction when Induction is false
	Reductions         bool
	HistogramReduction bool
	ArrayPrivatization bool
	RangeTest          bool
	Permutation        bool
	LRPD               bool
	// StrengthReduction re-introduces incremental accumulators for
	// the expensive closed forms induction substitution creates — the
	// code-expansion remedy of Section 3.2.
	StrengthReduction bool
	// Normalize rewrites constant-step loops to unit step (a Figure 3
	// enabler; classic vendor compilers did this too).
	Normalize bool
	// InterprocConstants specializes subroutines on constant actual
	// arguments without inlining (the paper's in-progress
	// interprocedural framework; the other Figure 3 enabler).
	InterprocConstants bool
	// UnitMemo, when non-nil, enables incremental compilation: per-unit
	// pass results are memoized in the shared memo keyed by each unit's
	// post-prologue content hash, and a unit whose hash matches a
	// completed entry replays its memoized Decision provenance instead
	// of re-running the per-unit passes (see incremental.go). The memo
	// is observation-only with respect to compilation output: verdicts,
	// Decision streams, and emitted code are byte-identical with or
	// without it — the differential test in incremental_test.go
	// enforces this, which is why the options fingerprint (key.go) need
	// not cover it.
	UnitMemo *UnitMemo
	// TrustedInput hands the input program over to this compilation:
	// CompileContext takes ownership of each unit it compiles in place,
	// where it would otherwise clone it. It means ownership only: no
	// compile checks its input (see ir.Program.Check). The caller
	// must not use the input program again after the call and must treat
	// Result.Program as read-only — the same contract the compile cache
	// already imposes by sharing one Result across requests. Like
	// UnitMemo this is observation-only: verdicts, Decision streams, and
	// emitted code are byte-identical with or without it.
	TrustedInput bool
	// Stats, when non-nil, accumulates dependence-test counts.
	Stats *deps.Stats
	// TraceLabel tags this compilation's spans, decisions and report
	// (typically the program name).
	TraceLabel string
	// Observer, when non-nil, receives per-pass spans and structured
	// per-loop decision records: for every loop each analysis pass
	// examines, the verdict it contributed, the blocking dependence or
	// symbolic fact involved, and the technique that ultimately enabled
	// or vetoed DOALL. Safe to share between concurrent compilations.
	Observer *obsv.Observer
}

// PolarisOptions enables the full technique set of the paper.
func PolarisOptions() Options {
	return Options{
		Inline:             true,
		Induction:          true,
		Reductions:         true,
		HistogramReduction: true,
		ArrayPrivatization: true,
		RangeTest:          true,
		Permutation:        true,
		LRPD:               true,
		StrengthReduction:  true,
		Normalize:          true,
		InterprocConstants: true,
	}
}

// LoopReport records the verdict for one loop. It names the loop, by
// (Unit, ID), and does not point at it: the DO statement and its ParInfo
// clauses are the loop of that unit of Result.Program with that ID. It
// is the public package's LoopInfo.
type LoopReport struct {
	// ID is the loop's stable identity ("MAIN/L30"), shared with the
	// observer's decision records and runtime metrics.
	ID       string
	Unit     string
	Index    string
	Depth    int
	Parallel bool
	// RunTimeTest lists arrays the loop will be speculatively tested
	// over at run time (the LRPD/PD test), empty otherwise.
	RunTimeTest []string
	Reason      string
}

// Result is the outcome of compilation.
type Result struct {
	Program *ir.Program
	Unit    *ir.ProgramUnit
	// Loops holds one record per loop of Program, in program order:
	// unit by unit, each unit's loops outermost first. It is built once
	// per compile, read-only like Program (the public Result shares
	// it), and it is the list Emit reads the verdicts from.
	Loops []LoopReport
	// InlinedCalls counts expanded call sites; InlineSkipped maps
	// callee to reason.
	InlinedCalls  int
	InlineSkipped map[string]string
	// InductionVars lists substituted induction variables.
	InductionVars []string
	// StrengthReduced counts accumulators introduced by the
	// post-analysis strength-reduction pass.
	StrengthReduced int
	// NormalizedLoops counts loops rewritten to unit step.
	NormalizedLoops int
	// InterprocConstants maps CALLEE.FORMAL to the propagated value.
	InterprocConstants map[string]int64
	// UnitsReused counts program units served from the incremental
	// unit memo; UnitsRecompiled counts units that ran through the
	// per-unit passes. Both are zero when compilation ran without
	// Options.UnitMemo (their sum equals len(Program.Units) otherwise).
	UnitsReused     int
	UnitsRecompiled int
	// Report is the pass manager's instrumentation: per-pass wall
	// time and mutation counts, in pipeline order. It is present even
	// when compilation fails partway (covering the passes that ran).
	Report *passes.PipelineReport
}

// ParallelLoops counts loops marked DOALL.
func (r *Result) ParallelLoops() int {
	n := 0
	for _, l := range r.Loops {
		if l.Parallel {
			n++
		}
	}
	return n
}

// Compile is CompileContext with a background context.
func Compile(prog *ir.Program, opt Options) (*Result, error) {
	return CompileContext(context.Background(), prog, opt)
}

// CompileContext runs the pass pipeline under ctx and returns the
// annotated program. Cancellation is honored between passes and inside
// the loop-analysis pass; on cancellation the context's error is
// returned promptly. Pass failures are reported as *PipelineError
// naming the failed pass.
//
// Ownership: a compile never writes a unit it did not clone. The
// pipeline reads prog's units where they stand — concurrent compiles
// may share one parsed program — and copies a unit at the moment it is
// about to rewrite it; a unit the memo answers for is never copied. No
// unit of Result.Program is a unit of prog. Options.TrustedInput is the
// one exception: the caller hands prog over, and the units are taken in
// place instead of copied. prog must be consistent, as ParseProgram's
// output is; only verify-ir checks, and only what the pipeline ran.
func CompileContext(ctx context.Context, prog *ir.Program, opt Options) (*Result, error) {
	return compile(ctx, prog, opt, nil)
}

// compile is CompileContext with a hook tests count copies on: copied
// is called with every unit cloned (see buildPipeline's own).
func compile(ctx context.Context, prog *ir.Program, opt Options, copied func(u *ir.ProgramUnit)) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	work := prog
	if !opt.TrustedInput {
		// The unit list is the compile's own; the units are borrowed.
		work = &ir.Program{Units: slices.Clone(prog.Units), FuncsSig: prog.FuncsSig}
	}
	if work.Main() == nil {
		return nil, fmt.Errorf("core: no main program unit")
	}
	res := &Result{Program: work, InlineSkipped: map[string]string{}}
	var verdicts [][]obsv.Decision

	m := passes.NewManager(opt.TraceLabel)
	m.Obs = opt.Observer
	var st *incrState
	if opt.UnitMemo != nil {
		st = &incrState{memo: opt.UnitMemo, label: opt.TraceLabel}
	}
	m.Add(buildPipeline(work, res, opt, st, copied, &verdicts)...)
	report, err := m.Run(ctx, work)
	res.Report = report
	res.Unit = work.Main()
	if st != nil {
		// Publish or abandon this compilation's in-flight memo claims:
		// on success every dirty unit's final IR and pass records become
		// a completed entry; on failure the claims are released so
		// concurrent compilations waiting on them retry.
		if err != nil {
			st.abort(err)
		} else {
			st.commit(work)
		}
	}
	if err != nil {
		return nil, err
	}
	// Each loop's one final record, once every pass that may change a
	// verdict has run: in res.Loops order, which is program order.
	for _, vs := range verdicts {
		opt.Observer.ReplayDecisions(vs, opt.TraceLabel)
	}
	return res, nil
}

// unitsByName returns a lookup of a unit's position in units by its
// name, -1 for none: one list of the positions in name order,
// binary-searched: 6 KB for a megaprogram's 1436 units, where a map
// of them takes 50. Units keep their names when they are replaced, so
// the lookup holds while the compile runs.
func unitsByName(units []*ir.ProgramUnit) func(name string) int {
	order := make([]int32, len(units))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(units[a].Name, units[b].Name) })
	return func(name string) int {
		k, ok := slices.BinarySearchFunc(order, name, func(i int32, name string) int { return strings.Compare(units[i].Name, name) })
		if !ok {
			return -1
		}
		return int(order[k])
	}
}

// evidenceLines renders one Decision evidence line per entry of m
// with format, which takes the key and the value, in key order; nil for
// none, as the decision codec reads an empty list back.
func evidenceLines[V any](format string, m map[string]V) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ev := make([]string, len(keys))
	for i, k := range keys {
		ev[i] = fmt.Sprintf(format, k, m[k])
	}
	return ev
}

// buildPipeline registers the technique passes selected by opt, in the
// paper's order. Every pass closure writes its findings into res and
// reports mutation counts through the pass Context. (*verdicts)[ui]
// holds unit ui's final records, parallel to its reports in res.Loops,
// for the caller to emit once the pipeline has succeeded.
func buildPipeline(work *ir.Program, res *Result, opt Options, st *incrState, copied func(u *ir.ProgramUnit), verdicts *[][]obsv.Decision) []passes.Pass {
	var ps []passes.Pass
	obs := opt.Observer
	label := opt.TraceLabel

	// own is the only place a unit is copied or specialized. It returns
	// unit i ready to be written: cloned (taken in place under
	// TrustedInput) with the interprocedural plan's edit script for it
	// applied, and installed in work. private asks for a copy the caller
	// keeps to itself — the inliner cuts its templates from one — and
	// leaves work as it was. Until a unit is owned it is the input's, and
	// read-only.
	var plan *interproc.Plan
	owned := make([]bool, len(work.Units))
	own := func(i int, private bool) *ir.ProgramUnit {
		u := work.Units[i]
		if owned[i] && !private {
			return u
		}
		if private || !opt.TrustedInput {
			u = u.Clone()
			if copied != nil {
				copied(u)
			}
		}
		if plan != nil && !owned[i] {
			plan.Apply(i, u)
		}
		if !private {
			work.Units[i], owned[i] = u, true
		}
		return u
	}

	// analyzers holds each unit's range analyzer from one per-unit pass
	// to the next (DESIGN.md §10d): rangesOf builds it for the first pass
	// to reach the unit, a pass that rewrote the unit drops it — the
	// constant table is read off the unit's text — and the next pass to
	// ask builds a fresh one. each sizes the slice before the first
	// per-unit pass, once the prologue has fixed the unit list.
	// Every analyzer converts with the compile's one leaf table
	// (DESIGN.md §5c): a compile runs on one goroutine, and the table
	// is garbage with it.
	var analyzers []*rng.Analyzer
	leaves := symbolic.NewLeaves()
	rangesOf := func(i int) *rng.Analyzer {
		if analyzers[i] == nil {
			analyzers[i] = rng.New(work.Units[i], leaves)
		}
		return analyzers[i]
	}

	// recs holds each unit's record, the only place a per-unit pass
	// leaves its results (incremental.go's unitRecord): the memo slate's
	// under a memo, one block of fresh records without one.
	var recs []*unitRecord

	// each runs one per-unit pass over every unit, in unit order on the
	// caller's goroutine, checking for cancellation before each unit, so
	// the Decision stream is in unit order by construction. A unit the
	// memo answered for replays the pass's captured decisions, decoded
	// only for an observer, in the stream position live would emit them;
	// any other unit runs live, which fills its record, through a capture
	// that keeps the decisions for the memo when there is one. Then fold
	// adds the record into res, for clean and dirty units alike.
	each := func(c *passes.Context, pass unitPass,
		live func(i int, rec *unitRecord, uo *obsv.Observer) error,
		fold func(i int, rec *unitRecord) error) error {
		if recs == nil {
			analyzers = make([]*rng.Analyzer, len(work.Units))
			if st != nil {
				recs = st.recs
			} else {
				block := make([]unitRecord, len(work.Units))
				recs = make([]*unitRecord, len(block))
				for i := range block {
					recs[i] = &block[i]
				}
			}
			// The first per-unit pass takes every unit the memo did not
			// answer for; from here on no unit of work is the input's.
			for i := range work.Units {
				if st == nil || st.reuse[i] == nil {
					own(i, false)
				}
			}
		}
		for i, rec := range recs {
			if err := c.Err(); err != nil {
				return err
			}
			if st != nil && st.reuse[i] != nil {
				if err := obs.ReplayList(rec.provenance, int(pass), label); err != nil {
					return err
				}
			} else {
				uo := obs
				if rec.decisions != nil {
					uo = obsv.NewCapture(obs)
				}
				if err := live(i, rec, uo); err != nil {
					return err
				}
				if rec.decisions != nil {
					rec.decisions[pass] = uo.TakeDecisions()
				}
			}
			if err := fold(i, rec); err != nil {
				return err
			}
		}
		return nil
	}

	// 0. Interprocedural constant propagation (subroutine
	// specialization; reaches callees the inliner skips). The pass
	// decides; own applies each unit's share when it takes the unit.
	if opt.InterprocConstants {
		ps = append(ps, passes.Func("interproc-constants", func(c *passes.Context) error {
			plan = interproc.Analyze(work)
			res.InterprocConstants = plan.Propagated
			if st != nil {
				// The edit signatures feed the unit hashes: a specialized
				// unit's raw-source key must also cover the exact edits
				// the plan holds for it.
				st.interSigs = plan.UnitSigs
			}
			c.Count("constants_propagated", int64(len(plan.Propagated)))
			if obs != nil && len(plan.Propagated) > 0 {
				obs.Decision(obsv.Decision{
					Label: label, Pass: "interproc-constants",
					Detail:   "constant actual arguments propagated into callees",
					Evidence: evidenceLines("%s = %d", plan.Propagated),
				})
			}
			return nil
		}))
	}

	// 1. Inline expansion.
	if opt.Inline {
		ps = append(ps, passes.Func("inline", func(c *passes.Context) error {
			unit := own(slices.Index(work.Units, work.Main()), false)
			rep := inline.ExpandAll(work.Units, unit, inline.DefaultOptions(), unitsByName(work.Units), func(i int) *ir.ProgramUnit {
				return own(i, true)
			})
			res.InlinedCalls = rep.Expanded
			res.InlineSkipped = rep.Skipped
			c.Count("calls_inlined", int64(rep.Expanded))
			c.Count("calls_skipped", int64(len(rep.Skipped)))
			if obs != nil && (rep.Expanded > 0 || len(rep.Skipped) > 0) {
				obs.Decision(obsv.Decision{
					Label: label, Unit: unit.Name, Pass: "inline",
					Detail:   fmt.Sprintf("%d call sites expanded", rep.Expanded),
					Evidence: evidenceLines("skipped %s: %s", rep.Skipped),
				})
			}
			return nil
		}))
	}

	// 1½. Unit hashing and memo acquisition (incremental compilation
	// only). It runs after the whole-program prologue passes have
	// folded every interprocedural input into each unit's rendered text
	// and before the first per-unit pass, hashes every unit, and swaps
	// clean units for clones of their memoized final IR; the per-unit
	// passes then skip clean units and replay their records. The pass
	// emits no Decisions of its own, so the stream stays byte-identical
	// to a from-scratch compile.
	if st != nil {
		ps = append(ps, passes.Func("unit-hash", func(c *passes.Context) error {
			return st.acquirePass(c, work, res, opt, func(i int) *ir.ProgramUnit { return own(i, false) })
		}))
	}

	// 2. Loop normalization (unit step), per unit. Subsequent passes
	// see a range analyzer built from the rewritten text, so the
	// per-pass unit sweep is equivalent to the per-unit pass sweep.
	if opt.Normalize {
		ps = append(ps, passes.Func("normalize", func(c *passes.Context) error {
			return each(c, passNormalize, func(i int, rec *unitRecord, uo *obsv.Observer) error {
				u := work.Units[i]
				rec.normalized = normalize.Run(u, rangesOf(i)).Normalized
				if rec.normalized > 0 {
					analyzers[i] = nil
					uo.Decision(obsv.Decision{
						Label: label, Unit: u.Name, Pass: "normalize",
						Detail: fmt.Sprintf("%d loops rewritten to unit step", rec.normalized),
					})
				}
				return nil
			}, func(i int, rec *unitRecord) error {
				res.NormalizedLoops += rec.normalized
				c.Count("loops_normalized", int64(rec.normalized))
				return nil
			})
		}))
	}

	// 3. Induction-variable substitution, per unit: the main program
	// (post-inlining) and any remaining subroutines, which are
	// analyzed intraprocedurally exactly as a non-inlining compiler
	// would see them.
	if opt.Induction || opt.SimpleInduction {
		ps = append(ps, passes.Func("induction", func(c *passes.Context) error {
			iopt := induction.Options{SimpleOnly: !opt.Induction}
			return each(c, passInduction, func(i int, rec *unitRecord, uo *obsv.Observer) error {
				u := work.Units[i]
				ires := induction.RunWith(u, rangesOf(i), iopt)
				if len(ires.Solved) == 0 {
					return nil
				}
				analyzers[i] = nil
				solved := make([]string, len(ires.Solved))
				rec.solved = make([]string, len(ires.Solved))
				for k, s := range ires.Solved {
					solved[k] = s.Name
					rec.solved[k] = u.Name + "." + s.Name
				}
				uo.Decision(obsv.Decision{
					Label: label, Unit: u.Name, Pass: "induction",
					Detail:   "induction variables replaced by closed forms",
					Evidence: solved,
				})
				return nil
			}, func(i int, rec *unitRecord) error {
				res.InductionVars = append(res.InductionVars, rec.solved...)
				c.Count("variables_substituted", int64(len(rec.solved)))
				return nil
			})
		}))
	}

	// 4. Per-loop analysis: reduction recognition, privatization,
	// symbolic dependence testing, and LRPD candidate flagging, writing
	// the ParInfo annotation on every loop.
	//
	// The pass concatenates the units' reports in unit order into
	// res.Loops and, under an observer, makes (*verdicts)[ui] unit ui's
	// final records, parallel to its reports there.
	ps = append(ps, passes.Func("dependence-analysis", func(c *passes.Context) error {
		if obs != nil {
			*verdicts = make([][]obsv.Decision, len(work.Units))
		}
		err := each(c, passDependence, func(ui int, rec *unitRecord, uo *obsv.Observer) error {
			u := work.Units[ui]
			assignLoopIDs(u)
			ranges := rangesOf(ui)
			tester := deps.NewTester(u, ranges)
			// The unit's analyzeLoop calls see a per-unit options copy:
			// decision records go to the unit observer (the shared one, or
			// under a memo a capture forwarding to it), which is non-nil
			// exactly when someone keeps the loops' final records, and
			// dependence-test counts accumulate in the unit's record.
			uopt := opt
			uopt.Observer = uo
			uopt.Stats = &rec.stats
			loops := ir.Loops(u.Body)
			rec.reports = make([]LoopReport, len(loops))
			if uo != nil {
				rec.verdicts = make([]obsv.Decision, len(loops))
			}
			// Innermost-first, so a loop's LRPD decision can see whether
			// its subtree is already parallel (speculation belongs at the
			// level where static analysis fails, not above it). The reports
			// stay in program order, outermost-first.
			for i := len(loops) - 1; i >= 0; i-- {
				if err := c.Err(); err != nil {
					return err
				}
				report, verdict := analyzeLoop(u, ranges, tester, loops[i], uopt)
				report.Unit = u.Name
				rec.reports[i] = report
				if rec.verdicts != nil {
					rec.verdicts[i] = verdict
				}
			}
			// Only the constant table crosses the barrier to strength
			// reduction: every unit's fact tables held until then would
			// be the pass's peak memory.
			ranges.ReleaseCaches()
			return nil
		}, func(ui int, rec *unitRecord) error {
			if opt.Stats != nil {
				opt.Stats.Add(&rec.stats)
			}
			if obs == nil {
				return nil
			}
			if st == nil || st.reuse[ui] == nil {
				(*verdicts)[ui] = rec.verdicts
				return nil
			}
			var err error
			(*verdicts)[ui], err = obsv.DecodeList(rec.provenance, int(numUnitPasses), label)
			return err
		})
		if err != nil {
			return err
		}
		// One copy of every report, into the array the downstream passes
		// may update: the records keep their as-of-analysis values.
		n := 0
		for _, rec := range recs {
			n += len(rec.reports)
		}
		res.Loops = slices.Grow(res.Loops, n) // nil stays nil without loops
		for _, rec := range recs {
			res.Loops = append(res.Loops, rec.reports...)
		}
		var parallel, lrpd int64
		for _, lr := range res.Loops {
			if lr.Parallel {
				parallel++
			}
			if len(lr.RunTimeTest) > 0 {
				lrpd++
			}
		}
		c.Count("loops_annotated", int64(len(res.Loops)))
		c.Count("loops_parallel", parallel)
		c.Count("loops_lrpd", lrpd)
		obs.Count("loops_analyzed", int64(len(res.Loops)))
		obs.Count("loops_doall", parallel)
		obs.Count("loops_lrpd", lrpd)
		return nil
	}))

	// 5. Code-generation strength reduction (after the verdicts, which
	// it consumes and updates).
	if opt.StrengthReduction {
		ps = append(ps, passes.Func("strength-reduction", func(c *passes.Context) error {
			next := 0 // the unit's first report in res.Loops
			return each(c, passStrength, func(ui int, rec *unitRecord, _ *obsv.Observer) error {
				rec.reduced = strength.Run(work.Units[ui], rangesOf(ui)).Reduced
				analyzers[ui] = nil // last use
				return nil
			}, func(ui int, rec *unitRecord) error {
				reports := res.Loops[next : next+len(rec.reports)]
				next += len(reports)
				res.StrengthReduced += rec.reduced
				c.Count("accumulators_introduced", int64(rec.reduced))
				if rec.reduced == 0 {
					return nil
				}
				// Bring the unit's reports up to the Par annotations the pass
				// left, live or memoized (a memoized unit was captured after
				// the pass ran on it), and, under an observer, give each loop
				// whose verdict changed the pass's record in its verdict slot.
				// Report k names the unit's loop k: the dependence pass
				// reported ir.Loops in order, and no pass adds or removes a
				// loop.
				loops := ir.Loops(work.Units[ui].Body)
				var flips int64
				for k := range reports {
					lr := &reports[k]
					par := loops[k].Par
					if par == nil || lr.Parallel == par.Parallel {
						continue
					}
					flips++
					lr.Parallel, lr.Reason = par.Parallel, par.Reason
					if obs == nil {
						continue
					}
					vs := (*verdicts)[ui]
					if flips == 1 && rec.decisions != nil {
						// The record's verdicts will be the memo's, as of
						// analysis: write a copy.
						vs = slices.Clone(vs)
						(*verdicts)[ui] = vs
					}
					vs[k] = strengthVerdict(vs[k], par.Reason)
				}
				if flips > 0 {
					c.Count("verdict_flips", flips)
				}
				return nil
			})
		}))
	}

	// 6. Final IR consistency check. On the incremental path only the
	// units this compilation actually ran are checked: a clean unit is
	// the very object a previous compilation committed after its own
	// verify-ir pass, and completed memo entries are immutable, so
	// re-walking it can only reconfirm what was already verified. (The
	// per-unit check forgoes the whole-program cross-unit aliasing
	// sweep; the prologue never introduces sharing between units — the
	// inliner splices clones — and dirty units come from a fresh parse,
	// so they cannot alias memoized IR from an earlier compilation.)
	ps = append(ps, passes.Func("verify-ir", func(c *passes.Context) error {
		if st == nil {
			if err := work.Check(); err != nil {
				return fmt.Errorf("pipeline produced inconsistent IR: %w", err)
			}
			return nil
		}
		for i, u := range work.Units {
			if st.reuse[i] != nil {
				continue
			}
			if err := u.Check(); err != nil {
				return fmt.Errorf("pipeline produced inconsistent IR: %w", err)
			}
		}
		return nil
	}))
	return ps
}

// analyzeLoop runs reductions + privatization + dependence analysis on
// one loop and writes its ParInfo annotation. It emits the per-pass
// evidence records and returns the loop's final record rather than
// emitting it, built only under an observer (the zero Decision
// otherwise): a later pass may still change the verdict.
func analyzeLoop(unit *ir.ProgramUnit, ranges *rng.Analyzer, tester *deps.Tester, loop *ir.DoStmt, opt Options) (LoopReport, obsv.Decision) {
	obs := opt.Observer
	label := opt.TraceLabel
	depth := len(ir.EnclosingLoops(unit.Body, loop))
	rep := LoopReport{ID: loop.ID, Index: loop.Index, Depth: depth}
	// loopDecision pre-fills the identity fields common to every record
	// this loop produces.
	loopDecision := func(d obsv.Decision) obsv.Decision {
		d.Label, d.Unit, d.Loop, d.Index, d.Depth = label, unit.Name, loop.ID, loop.Index, depth
		return d
	}

	// Reduction recognition (candidates; validated by the dependence
	// pass masking them — the paper's flag-then-verify order).
	var reds *reduction.Result
	skip := map[ir.Stmt]bool{}
	if opt.Reductions {
		reds = reduction.Recognize(unit, loop)
		if !opt.HistogramReduction {
			var kept []reduction.Candidate
			for _, c := range reds.Candidates {
				if !c.Histogram {
					kept = append(kept, c)
				}
			}
			reds.Candidates = kept
		}
		skip = reds.SkipSet()
		if len(reds.Candidates) > 0 {
			ev := make([]string, len(reds.Candidates))
			for i := range reds.Candidates {
				cand := &reds.Candidates[i]
				kind := "scalar"
				if cand.Histogram {
					kind = "histogram"
				} else if cand.IsArray() {
					kind = "array"
				}
				ev[i] = fmt.Sprintf("%s %s reduction on %s", kind, reductionOpName(cand.Op), cand.Target)
			}
			obs.Decision(loopDecision(obsv.Decision{
				Pass:     "reduction",
				Detail:   "reduction candidates flagged, update statements masked for the dependence pass",
				Evidence: ev,
			}))
		}
	}

	// Privatization, reading the one nest the dependence analysis
	// below reads too.
	nest := tester.NewNest(loop)
	pres := priv.Analyze(unit, ranges, nest)
	privArrays := map[string]bool{}
	usableArrays := pres.PrivateArrays
	if !opt.ArrayPrivatization {
		usableArrays = nil
	}
	for _, a := range usableArrays {
		privArrays[a] = true
	}

	// Reduction targets trump privatization blocks.
	blocked := map[string]string{}
	for name, why := range pres.Blocked {
		blocked[name] = why
	}
	if reds != nil {
		for _, c := range reds.Candidates {
			delete(blocked, c.Target)
		}
	}
	// Sorted, so the evidence and the verdict below name the same
	// variable on every compile of the same source.
	bnames := make([]string, 0, len(pres.Blocked))
	for n := range pres.Blocked {
		bnames = append(bnames, n)
	}
	sort.Strings(bnames)
	if len(pres.PrivateScalars)+len(usableArrays)+len(pres.Blocked) > 0 {
		var ev []string
		for _, s := range pres.PrivateScalars {
			ev = append(ev, "private scalar "+s)
		}
		for _, s := range pres.LastValue {
			ev = append(ev, "last-value copy-out of "+s)
		}
		for _, a := range usableArrays {
			ev = append(ev, "private array "+a)
		}
		for _, n := range bnames {
			ev = append(ev, fmt.Sprintf("not privatizable %s: %s", n, pres.Blocked[n]))
		}
		obs.Decision(loopDecision(obsv.Decision{
			Pass:     "privatization",
			Detail:   "privatization analysis of assigned variables",
			Evidence: ev,
		}))
	}
	// Arrays blocked by the privatizer are not fatal by themselves:
	// the dependence test decides whether their accesses conflict
	// across iterations. Scalars are: an unprivatizable assigned
	// scalar serializes the loop.
	for _, name := range bnames {
		why, still := blocked[name]
		if !still {
			continue
		}
		if sym := unit.Symbols.Lookup(name); sym != nil && sym.IsArray() {
			continue
		}
		loop.Par = &ir.ParInfo{Parallel: false, Reason: fmt.Sprintf("scalar %s: %s", name, why)}
		rep.Reason = loop.Par.Reason
		if obs == nil {
			return rep, obsv.Decision{}
		}
		return rep, loopDecision(scalarVerdictRecord(loop.Par, name, why))
	}

	// Dependence analysis.
	cfg := deps.Config{
		LinearOnly:    !opt.RangeTest,
		Permutation:   opt.Permutation,
		SkipStmts:     skip,
		ExcludeArrays: privArrays,
		Stats:         opt.Stats,
	}
	verdict := tester.AnalyzeNest(nest, cfg)
	{
		d := obsv.Decision{
			Pass:      "dependence",
			Detail:    verdict.Reason,
			Technique: verdict.DecidedBy,
			Blocker:   verdict.Blocker,
		}
		for _, a := range verdict.Unanalyzable {
			d.Evidence = append(d.Evidence, "unanalyzable subscripts on "+a)
		}
		if len(verdict.Permutation) > 0 {
			d.Evidence = append(d.Evidence, fmt.Sprintf("proving loop order %v", verdict.Permutation))
		}
		obs.Decision(loopDecision(d))
	}

	par := &ir.ParInfo{
		Private:       pres.PrivateScalars,
		PrivateArrays: usableArrays,
		LastValue:     pres.LastValue,
	}
	if reds != nil {
		par.Reductions = reds.Reductions()
	}
	switch {
	case verdict.Parallel:
		par.Parallel = true
		par.Reason = verdict.Reason
		// The paper's flag removal: candidates whose update statements
		// carry no dependence even unmasked (disjoint array updates
		// like U(I) = U(I) + e) are ordinary independent writes — the
		// reduction transform and its merge cost are unnecessary.
		if reds != nil {
			par.Reductions = dropProvenIndependent(tester, nest, verdict, reds, cfg, par.Reductions)
		}
	case opt.LRPD && len(verdict.Unanalyzable) > 0 && !subtreeParallel(loop):
		// Retry with the unanalyzable arrays excluded (iterating as
		// more unanalyzable arrays surface): if everything else is
		// independent, the loop is a run-time test candidate over
		// exactly those arrays. Speculation is only placed at the
		// level where static analysis fails — a loop whose subtree is
		// already parallel keeps that inner parallelism instead.
		ex := map[string]bool{}
		for a := range privArrays {
			ex[a] = true
		}
		candidates := map[string]bool{}
		for _, a := range verdict.Unanalyzable {
			ex[a] = true
			candidates[a] = true
		}
		cfg2 := cfg
		cfg2.ExcludeArrays = ex
		for tries := 0; tries < 4; tries++ {
			retry := tester.AnalyzeNest(nest, cfg2)
			if retry.Parallel {
				for a := range candidates {
					par.LRPD = append(par.LRPD, a)
				}
				sort.Strings(par.LRPD)
				par.Reason = fmt.Sprintf("speculative: PD test on %v", par.LRPD)
				obs.Decision(loopDecision(obsv.Decision{
					Pass:      "lrpd",
					Technique: "speculative run-time PD test on " + strings.Join(par.LRPD, ", "),
					Detail:    "loop independent except for the unanalyzable arrays; speculation placed here",
					Evidence:  append([]string(nil), par.LRPD...),
				}))
				break
			}
			if len(retry.Unanalyzable) == 0 {
				par.Reason = verdict.Reason
				break
			}
			progress := false
			for _, a := range retry.Unanalyzable {
				if !ex[a] {
					ex[a] = true
					candidates[a] = true
					progress = true
				}
			}
			if !progress {
				par.Reason = verdict.Reason
				break
			}
		}
		if par.Reason == "" {
			par.Reason = verdict.Reason
		}
	default:
		par.Reason = verdict.Reason
	}
	loop.Par = par
	rep.Parallel = par.Parallel
	rep.RunTimeTest = par.LRPD
	rep.Reason = par.Reason
	if obs == nil {
		return rep, obsv.Decision{}
	}
	return rep, loopDecision(verdictRecord(par, verdict))
}

// verdictRecord builds the final record of a loop the dependence test
// decided, from its annotation and the test's verdict.
func verdictRecord(par *ir.ParInfo, verdict deps.Verdict) obsv.Decision {
	d := obsv.Decision{Pass: "verdict", Detail: par.Reason, Final: true}
	switch {
	case par.Parallel:
		d.Verdict = "doall"
		d.Technique = verdictTechnique(par, verdict)
	case len(par.LRPD) > 0:
		d.Verdict = "lrpd"
		d.Technique = verdictTechnique(par, verdict)
	default:
		d.Verdict = "serial"
		d.Blocker = par.Reason
		for _, a := range verdict.Unanalyzable {
			d.Evidence = append(d.Evidence, "unanalyzable subscripts on "+a)
		}
	}
	return d
}

// scalarVerdictRecord builds the final record of a loop an
// unprivatizable scalar serialized before the dependence test ran.
func scalarVerdictRecord(par *ir.ParInfo, name, why string) obsv.Decision {
	return obsv.Decision{
		Pass:    "verdict",
		Verdict: "serial",
		Blocker: fmt.Sprintf("unprivatizable scalar %s (%s)", name, why),
		Detail:  par.Reason,
		Final:   true,
	}
}

// strengthVerdict returns the record that replaces the final record d
// of a loop strength reduction demoted for reason (the pass only ever
// demotes). It keeps d's loop identity and names, in one evidence line,
// the verdict it overrode. d's Evidence is replaced, not written, so a
// memoized record it was copied from stays as it was.
func strengthVerdict(d obsv.Decision, reason string) obsv.Decision {
	d.Evidence = []string{"overrides the " + d.Verdict + " verdict of dependence analysis: " + d.Technique}
	d.Pass, d.Verdict, d.Technique, d.Blocker, d.Detail = "strength-reduction", "serial", "", reason, reason
	return d
}

// AssignLoopIDs stamps a unit's loops exactly as the dependence pass
// does. Exported for the fabric wire codec: a peer reconstructing a
// compiled program from its canonical rendering re-stamps the parsed
// loops and must land on the very IDs the owner's verdicts and
// decision records carry.
func AssignLoopIDs(u *ir.ProgramUnit) { assignLoopIDs(u) }

// assignLoopIDs stamps every loop in the unit with its stable identity
// ("MAIN/L30"): pre-order position numbered like Fortran statement
// labels. IDs are assigned here — after inlining and normalization, on
// the loop structure the verdicts describe — and survive Clone, so the
// interpreter's runtime metrics key to the same IDs as the decision
// records.
func assignLoopIDs(u *ir.ProgramUnit) {
	for i, d := range ir.Loops(u.Body) {
		d.ID = fmt.Sprintf("%s/L%d", u.Name, 10*(i+1))
	}
}

// reductionOpName renders a reduction operator for explanations.
func reductionOpName(op string) string {
	switch op {
	case "+":
		return "sum"
	case "*":
		return "product"
	case "MAX":
		return "max"
	case "MIN":
		return "min"
	}
	return op
}

// verdictTechnique renders the enabling-technique clause of a final
// decision record: the deciding dependence test plus every transform
// (privatization, reduction, speculation) the verdict relied on.
func verdictTechnique(par *ir.ParInfo, verdict deps.Verdict) string {
	var parts []string
	switch verdict.DecidedBy {
	case "linear tests":
		parts = append(parts, "independence proved by the linear dependence tests")
	case "range test":
		parts = append(parts, "independence proved by the range test")
	case "permuted range test":
		parts = append(parts, fmt.Sprintf("independence proved by the range test under permuted loop order %v", verdict.Permutation))
	}
	if len(par.LRPD) > 0 {
		parts = append(parts, "speculative run-time PD test on "+strings.Join(par.LRPD, ", "))
	}
	if len(par.PrivateArrays) > 0 {
		parts = append(parts, "array privatization of "+strings.Join(par.PrivateArrays, ", "))
	}
	if len(par.Private) > 0 {
		parts = append(parts, "scalar privatization of "+strings.Join(par.Private, ", "))
	}
	for _, r := range par.Reductions {
		kind := "reduction"
		if r.Histogram {
			kind = "histogram reduction"
		}
		parts = append(parts, fmt.Sprintf("%s %s on %s", reductionOpName(r.Op), kind, r.Target))
	}
	if len(parts) == 0 {
		return par.Reason
	}
	return strings.Join(parts, "; ")
}

// dropProvenIndependent removes the flag of each array-reduction
// candidate whose update statements, unmasked one candidate at a time,
// leave the loop's identity-order verdict standing (Section 3.2: the
// dependence pass "removes the flags for those statements which it can
// prove have no loop-carried dependences"). Only the pairs the mask hid
// are tested, on the nest the verdict was reached on. Scalar reductions
// are always kept — scalar accesses are outside the dependence pass and
// genuinely carry.
func dropProvenIndependent(tester *deps.Tester, nest *deps.Nest, verdict deps.Verdict, reds *reduction.Result, cfg deps.Config, anns []ir.Reduction) []ir.Reduction {
	kept := anns[:0]
	for _, ann := range anns {
		cand := findCandidate(reds, ann.Target)
		if cand == nil || !cand.IsArray() {
			kept = append(kept, ann)
			continue
		}
		unmask := map[ir.Stmt]bool{}
		for _, st := range cand.Stmts {
			unmask[st] = true
		}
		if !tester.IndependentUnmasked(nest, verdict, cfg, unmask) {
			kept = append(kept, ann)
		}
	}
	return kept
}

func findCandidate(reds *reduction.Result, target string) *reduction.Candidate {
	for i := range reds.Candidates {
		if reds.Candidates[i].Target == target {
			return &reds.Candidates[i]
		}
	}
	return nil
}

// subtreeParallel reports whether any loop nested inside this one is
// already marked parallel or LRPD (annotations exist because loops are
// analyzed innermost-first).
func subtreeParallel(loop *ir.DoStmt) bool {
	for _, d := range ir.Loops(loop.Body) {
		if d.Par != nil && (d.Par.Parallel || len(d.Par.LRPD) > 0) {
			return true
		}
	}
	return false
}

// Summary renders a human-readable compilation report.
func (r *Result) Summary() string {
	out := fmt.Sprintf("unit %s: %d loops, %d parallel", r.Unit.Name, len(r.Loops), r.ParallelLoops())
	if r.InlinedCalls > 0 {
		out += fmt.Sprintf(", %d calls inlined", r.InlinedCalls)
	}
	if len(r.InductionVars) > 0 {
		out += fmt.Sprintf(", induction vars %v", r.InductionVars)
	}
	if r.NormalizedLoops > 0 {
		out += fmt.Sprintf(", %d loops normalized", r.NormalizedLoops)
	}
	if len(r.InterprocConstants) > 0 {
		out += fmt.Sprintf(", %d interprocedural constants", len(r.InterprocConstants))
	}
	if r.StrengthReduced > 0 {
		out += fmt.Sprintf(", %d strength reductions", r.StrengthReduced)
	}
	out += "\n"
	for _, l := range r.Loops {
		status := "serial  "
		if l.Parallel {
			status = "PARALLEL"
		} else if len(l.RunTimeTest) > 0 {
			status = "LRPD    "
		}
		for i := 0; i < l.Depth; i++ {
			out += "  "
		}
		out += fmt.Sprintf("DO %-4s %s  %s\n", l.Index, status, l.Reason)
	}
	return out
}
