// Package pfa models the comparison baseline of the paper's Figure 7:
// SGI's Power Fortran Analyzer circa 1996, as the paper characterizes
// it. Its analysis level: intraprocedural only (no inline expansion),
// simple induction variables with constant increments, scalar (not
// array) privatization, scalar non-histogram reductions, and linear
// (GCD/Banerjee) dependence tests only — no symbolic range test, no
// run-time speculation.
//
// PFA's strength was its back-end code generation (loop interchange,
// unrolling, fusion), which the paper credits for its wins on two codes
// and blames for its losses on appsp and tomcatv. That is modelled as a
// CodegenFactor applied to the machine model, chosen by a structural
// heuristic over the program's loops.
package pfa

import (
	"fmt"

	"polaris/internal/core"
	"polaris/internal/ir"
	"polaris/internal/rng"
	"polaris/internal/symbolic"
)

// Options returns the 1996-vendor capability configuration.
func Options() core.Options {
	return core.Options{
		Inline:             false,
		Induction:          false,
		SimpleInduction:    true,
		Reductions:         true,
		HistogramReduction: false,
		ArrayPrivatization: false,
		RangeTest:          false,
		Permutation:        false,
		LRPD:               false,
		Normalize:          true, // loop normalization is classic vendor technology
	}
}

// Result couples the baseline compilation with the modelled back-end
// code-quality factor.
type Result struct {
	*core.Result
	// Factor scales every executed cycle (see CodegenFactor).
	Factor float64
	// Demoted lists loops whose parallelization the unrolling back end
	// destroyed (the appsp/tomcatv effect).
	Demoted []string
}

// Compile runs the baseline pipeline and applies the back-end model:
// when PFA's unroller targets tiny constant-trip loops nested inside a
// parallel loop, the transformed loop body defeats the parallel code
// generator — the loop is demoted to serial and the whole program pays
// the transformation overhead (factor 1.25). Otherwise small-bodied
// innermost loops reward unrolling/fusion (factor 0.85) when
// parallelization succeeded broadly.
func Compile(prog *ir.Program) (*Result, error) {
	compiled, err := core.Compile(prog, Options())
	if err != nil {
		return nil, err
	}
	stmts, err := loopStmts(compiled)
	if err != nil {
		return nil, err
	}
	// One leaf table for the back-end model's range queries, as a
	// compile has one.
	lv := symbolic.NewLeaves()
	res := &Result{Result: compiled, Factor: CodegenFactor(compiled, stmts, lv)}
	if res.Factor > 1.0 {
		// The unroller interfered: demote every parallel loop that
		// contains a tiny constant-trip inner loop (its body was
		// bloated by the unrolled copies) and every tiny loop itself
		// (it was unrolled out of existence).
		for i := range compiled.Loops {
			lr, d := &compiled.Loops[i], stmts[i]
			if !lr.Parallel {
				continue
			}
			if containsTinyLoop(compiled, lr.Unit, d, lv) || isTinyLoop(compiled, lr.Unit, d, lv) {
				lr.Parallel = false
				lr.Reason = "parallelism lost to inner-loop unrolling (code generation)"
				d.Par.Parallel = false
				d.Par.Reason = lr.Reason
				res.Demoted = append(res.Demoted, lr.Unit+"."+lr.Index)
			}
		}
	}
	return res, nil
}

// loopStmts returns the DO statement each of compiled.Loops names by
// (Unit, ID), index for index. The records are in program order, so
// one walk of the program's loops pairs them up.
func loopStmts(compiled *core.Result) ([]*ir.DoStmt, error) {
	stmts := make([]*ir.DoStmt, 0, len(compiled.Loops))
	for _, u := range compiled.Program.Units {
		for _, d := range ir.Loops(u.Body) {
			if k := len(stmts); k >= len(compiled.Loops) || compiled.Loops[k].Unit != u.Name || compiled.Loops[k].ID != d.ID {
				return nil, fmt.Errorf("pfa: loop %s/%s has no verdict in program order", u.Name, d.ID)
			}
			stmts = append(stmts, d)
		}
	}
	if len(stmts) != len(compiled.Loops) {
		return nil, fmt.Errorf("pfa: %d verdicts for %d loops", len(compiled.Loops), len(stmts))
	}
	return stmts, nil
}

// isTinyLoop reports a tiny constant-trip small-bodied loop.
func isTinyLoop(compiled *core.Result, unitName string, d *ir.DoStmt, lv *symbolic.Leaves) bool {
	u := compiled.Program.Unit(unitName)
	if u == nil || len(d.Body.Stmts) > 3 {
		return false
	}
	ra := rng.New(u, lv)
	lo, hi, ok := ra.LoopRange(d)
	if !ok {
		return false
	}
	lc, ok1 := lo.ConstInt64()
	hc, ok2 := hi.ConstInt64()
	return ok1 && ok2 && hc-lc+1 <= 8
}

// CodegenFactor models PFA's low-level loop transformations (loop
// interchange, unrolling, fusion), applied to the loops PFA itself
// parallelized:
//
//   - a parallel loop containing a tiny constant-trip inner loop gets
//     that inner loop unrolled into its body, bloating the parallel
//     region and adding overhead — the paper's appsp/tomcatv backfire
//     (factor 1.25);
//   - broad parallelization success (several loops) over small-bodied
//     innermost loops is where unrolling and fusion pay off — the two
//     codes where the paper reports PFA beating Polaris (factor 0.85);
//   - otherwise the back end is neutral (factor 1.0).
func CodegenFactor(compiled *core.Result, stmts []*ir.DoStmt, lv *symbolic.Leaves) float64 {
	parallel := 0
	smallish := 0
	for i, lr := range compiled.Loops {
		if !lr.Parallel {
			continue
		}
		parallel++
		if containsTinyLoop(compiled, lr.Unit, stmts[i], lv) {
			return 1.25
		}
		if smallInnermost(stmts[i]) {
			smallish++
		}
	}
	if parallel >= 4 && smallish*2 >= parallel {
		return 0.85
	}
	return 1.0
}

// containsTinyLoop reports a tiny constant-trip, small-bodied loop
// nested inside the loop (the unroller's favourite target).
func containsTinyLoop(compiled *core.Result, unitName string, d *ir.DoStmt, lv *symbolic.Leaves) bool {
	u := compiled.Program.Unit(unitName)
	if u == nil {
		return false
	}
	ra := rng.New(u, lv)
	for _, inner := range ir.Loops(d.Body) {
		if len(inner.Body.Stmts) > 3 {
			continue
		}
		lo, hi, ok := ra.LoopRange(inner)
		if !ok {
			continue
		}
		lc, ok1 := lo.ConstInt64()
		hc, ok2 := hi.ConstInt64()
		if ok1 && ok2 && hc-lc+1 <= 8 {
			return true
		}
	}
	return false
}

// smallInnermost reports whether the loop is (or contains) innermost
// loops with small bodies — the unrollable shape.
func smallInnermost(d *ir.DoStmt) bool {
	inner := ir.InnerLoops(d)
	if len(inner) == 0 {
		return len(d.Body.Stmts) <= 6
	}
	for _, l := range inner {
		if smallInnermost(l) {
			return true
		}
	}
	return false
}
