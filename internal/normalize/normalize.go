// Package normalize implements loop normalization, one of the two
// enabling transformations the paper names for the OCEAN loop of
// Figure 3 ("interprocedural constant propagation and loop
// normalization were needed to transform the loop nest into the form
// shown"): DO loops with constant step c ≠ 1 are rewritten to
// unit-step form
//
//	DO I = lo, hi, c            DO I$ = 1, (hi-lo+c)/c
//	  ... I ...         ==>       ... (lo + c*I$ - c) ...
//	END DO                      END DO
//
// so that induction substitution and the dependence tests — which
// reason in unit index steps — see a canonical nest. The Fortran
// trip-count formula (hi-lo+c)/c handles positive and negative steps
// and zero-trip loops alike.
package normalize

import (
	"polaris/internal/ir"
	"polaris/internal/rng"
)

// Result reports the pass's work.
type Result struct {
	// Normalized counts rewritten loops.
	Normalized int
}

// Run normalizes every constant-step loop of the unit whose step is
// not one. Loops whose index is live after the loop keep their
// original form unless the trip count is a compile-time constant (the
// exit value of the index must be reproducible).
func Run(u *ir.ProgramUnit, ra *rng.Analyzer) *Result {
	res := &Result{}
	for {
		target := findTarget(u, ra)
		if target == nil {
			return res
		}
		normalizeLoop(u, ra, target)
		res.Normalized++
	}
}

// findTarget locates the next loop to rewrite.
func findTarget(u *ir.ProgramUnit, ra *rng.Analyzer) *ir.DoStmt {
	var out *ir.DoStmt
	for _, d := range ir.Loops(u.Body) {
		if out != nil {
			break
		}
		c, ok := constStep(ra, d)
		if !ok || c == 1 || c == 0 {
			continue
		}
		if indexLiveAfter(u, d) && !constTrips(ra, d) {
			continue
		}
		out = d
	}
	return out
}

func constStep(ra *rng.Analyzer, d *ir.DoStmt) (int64, bool) {
	conv := ra.Conv(d.StepOr1())
	if !conv.OK {
		return 0, false
	}
	return conv.E.ConstInt64()
}

// constTrips reports whether init and limit are compile-time constants.
func constTrips(ra *rng.Analyzer, d *ir.DoStmt) bool {
	i := ra.Conv(d.Init)
	l := ra.Conv(d.Limit)
	if !i.OK || !l.OK {
		return false
	}
	_, okI := i.E.ConstSign()
	_, okL := l.E.ConstSign()
	return okI && okL
}

// indexLiveAfter conservatively reports use of the index after the
// loop within the unit.
func indexLiveAfter(u *ir.ProgramUnit, d *ir.DoStmt) bool {
	sym := u.Symbols.Lookup(d.Index)
	if sym != nil && (sym.Formal || sym.Common != "") {
		return true
	}
	inLoop := map[ir.Stmt]bool{ir.Stmt(d): true}
	ir.WalkStmts(d.Body, func(s ir.Stmt) bool { inLoop[s] = true; return true })
	live := false
	sawLoop := false
	ir.WalkStmts(u.Body, func(s ir.Stmt) bool {
		if s == d {
			sawLoop = true
			return false // don't descend; body refs are fine
		}
		if !sawLoop || inLoop[s] {
			return true
		}
		for _, e := range ir.StmtExprs(s) {
			if ir.References(e, d.Index) {
				live = true
			}
		}
		// A later DO re-defining the index is treated conservatively:
		// its header expressions were already checked as uses above.
		return !live
	})
	return live
}

// normalizeLoop rewrites one loop in place.
func normalizeLoop(u *ir.ProgramUnit, ra *rng.Analyzer, d *ir.DoStmt) {
	c, _ := constStep(ra, d)
	oldIndex := d.Index
	lo := d.Init
	hi := d.Limit
	fresh := u.Symbols.FreshName(oldIndex+"_N", ir.Symbol{Type: ir.TypeInteger})

	// Body uses of the old index become lo + c*t - c.
	repl := ir.Add(lo.Clone(), ir.Sub(ir.Mul(ir.Int(c), ir.Var(fresh)), ir.Int(c)))
	ir.MapStmtExprs(d.Body, func(e ir.Expr) ir.Expr {
		if v, ok := e.(*ir.VarRef); ok && v.Name == oldIndex {
			return repl.Clone()
		}
		return e
	})

	// Exit value, when observable: I = lo + c*max(0, trips).
	if indexLiveAfter(u, d) {
		// Only reached when trips are constant (findTarget).
		iC := ra.Conv(d.Init)
		lC := ra.Conv(d.Limit)
		iv, _ := iC.E.Const()
		lv, _ := lC.E.Const()
		init := iv.Num().Int64()
		limit := lv.Num().Int64()
		trips := (limit - init + c) / c
		if trips < 0 {
			trips = 0
		}
		exit := init + c*trips
		insertAfter(u.Body, d, &ir.AssignStmt{LHS: ir.Var(oldIndex), RHS: ir.Int(exit)})
	}

	// Header: DO fresh = 1, (hi - lo + c)/c.
	d.Index = fresh
	d.Init = ir.Int(1)
	d.Limit = ir.Div(ir.Add(ir.Sub(hi, lo.Clone()), ir.Int(c)), ir.Int(c))
	d.Step = nil
}

func insertAfter(root *ir.Block, target ir.Stmt, s ir.Stmt) {
	var walk func(b *ir.Block) bool
	walk = func(b *ir.Block) bool {
		for i, st := range b.Stmts {
			if st == target {
				b.Insert(i+1, s)
				return true
			}
			switch x := st.(type) {
			case *ir.DoStmt:
				if walk(x.Body) {
					return true
				}
			case *ir.IfStmt:
				if walk(x.Then) {
					return true
				}
				if x.Else != nil && walk(x.Else) {
					return true
				}
			}
		}
		return false
	}
	ir.Assert(walk(root), "normalize: loop vanished before exit-value insertion")
}
