// Package strength implements the code-generation remedy the paper
// sketches in Section 3.2 for the "unusually large code expansion"
// induction substitution causes: instead of re-evaluating a closed-form
// polynomial on every iteration of a hot inner loop, the value is
// assigned once at the loop header and updated incrementally by its
// (much cheaper) forward difference — effectively re-introducing the
// induction variable as a private accumulator after analysis is done.
//
// The pass runs after loop analysis: it targets innermost unit-step
// loops that execute inside a parallel ancestor (so the accumulator
// carries no observable dependence — the ancestor's iterations each
// get a private copy), extracts expensive integer polynomial
// subexpressions in the loop index, and rewrites
//
//	DO K = lo, hi                    T = e(lo)
//	  ... e(K) ...          ==>      DO K = lo, hi
//	END DO                             ... T ...
//	                                   T = T + (e(K+1)-e(K))
//	                                 END DO
package strength

import (
	"sort"

	"polaris/internal/ir"
	"polaris/internal/rng"
	"polaris/internal/symbolic"
)

// MinNodes is the minimum expression size worth reducing (the header
// assignment plus the per-iteration increment must beat re-evaluation).
const MinNodes = 6

// Result reports the pass's work.
type Result struct {
	// Reduced counts introduced accumulators.
	Reduced int
	// Temps lists the accumulator names.
	Temps []string
}

// Run applies strength reduction to every eligible innermost loop of
// the unit. Loops whose own annotation was parallel but that execute
// inside a parallel ancestor are demoted (the accumulator serializes
// them; the ancestor's parallelism is what the runtime uses).
func Run(u *ir.ProgramUnit, ra *rng.Analyzer) *Result {
	res := &Result{}
	for _, loop := range ir.Loops(u.Body) {
		if len(ir.InnerLoops(loop)) > 0 {
			continue // innermost only
		}
		if !hasParallelAncestor(u, loop) {
			continue
		}
		reduceLoop(u, ra, loop, res)
	}
	return res
}

func hasParallelAncestor(u *ir.ProgramUnit, loop *ir.DoStmt) bool {
	for _, d := range ir.EnclosingLoops(u.Body, loop) {
		if d.Par != nil && d.Par.Parallel {
			return true
		}
	}
	return false
}

// candidate is one expensive subexpression.
type candidate struct {
	expr  ir.Expr // representative occurrence
	sym   *symbolic.Expr
	nodes int
}

// reduceLoop transforms one innermost loop.
func reduceLoop(u *ir.ProgramUnit, ra *rng.Analyzer, loop *ir.DoStmt, res *Result) {
	// Unit step only.
	step := ra.Conv(loop.StepOr1())
	if !step.OK {
		return
	}
	if c, ok := step.E.ConstInt64(); !ok || c != 1 {
		return
	}
	v := loop.Index
	initConv := ra.Conv(loop.Init)
	if !initConv.OK {
		return
	}
	assigned := assignedScalars(loop.Body)

	// Collect maximal integer polynomial candidates in v.
	seen := map[string]*candidate{}
	collect := func(e ir.Expr) {
		collectCandidates(u, ra, e, v, assigned, seen)
	}
	ir.WalkStmts(loop.Body, func(s ir.Stmt) bool {
		for _, e := range ir.StmtExprs(s) {
			collect(e)
		}
		return true
	})
	if len(seen) == 0 {
		return
	}
	// Largest first; cap the number of accumulators per loop.
	var cands []*candidate
	for _, c := range seen {
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].nodes > cands[j].nodes })
	if len(cands) > 4 {
		cands = cands[:4]
	}

	parent, pos := findParent(u.Body, loop)
	if parent == nil {
		return
	}
	// Phase 1: replacements over the original body; phase 2: append
	// the increment tail statements (kept out of phase 1 so one
	// accumulator's update is never rewritten in terms of another's).
	type planned struct {
		tmp    string
		diffIR ir.Expr
	}
	var plans []planned
	reducedHere := 0
	for _, c := range cands {
		diff := c.sym.ForwardDiff(v)
		// Only profitable when the difference is much cheaper.
		diffIR := symbolic.ToIR(diff)
		if ir.CountNodes(diffIR) >= c.nodes {
			continue
		}
		tmp := u.Symbols.FreshName("SR_"+v, ir.Symbol{Type: ir.TypeInteger})
		// Header: T = e(lo).
		initVal := symbolic.ToIR(c.sym.Subst(v, initConv.E))
		parent.Insert(pos, &ir.AssignStmt{LHS: ir.Var(tmp), RHS: initVal})
		pos++
		// Replace occurrences inside the body.
		replaceInBlock(loop.Body, c.expr, tmp)
		plans = append(plans, planned{tmp: tmp, diffIR: diffIR})
		// The accumulator must be private wherever this loop sits
		// under a parallel loop.
		for _, anc := range ir.EnclosingLoops(u.Body, loop) {
			if anc.Par != nil && anc.Par.Parallel {
				anc.Par.Private = append(anc.Par.Private, tmp)
			}
		}
		reducedHere++
		res.Reduced++
		res.Temps = append(res.Temps, tmp)
	}
	for _, p := range plans {
		loop.Body.Append(&ir.AssignStmt{
			LHS: ir.Var(p.tmp),
			RHS: ir.Add(ir.Var(p.tmp), p.diffIR),
		})
	}
	if reducedHere > 0 && loop.Par != nil && loop.Par.Parallel {
		// The accumulator serializes this loop; its parallel ancestor
		// carries the parallelism.
		loop.Par.Parallel = false
		loop.Par.Reason = "strength-reduced; executes inside a parallel ancestor"
	}
}

// collectCandidates walks e top-down, recording the largest subtrees
// that qualify; qualified subtrees are not descended into.
func collectCandidates(u *ir.ProgramUnit, ra *rng.Analyzer, e ir.Expr, v string, assigned map[string]bool, out map[string]*candidate) {
	if qualifies(u, ra, e, v, assigned, out) {
		return
	}
	for _, c := range ir.Children(e) {
		collectCandidates(u, ra, c, v, assigned, out)
	}
}

// qualifies tests one subtree and records it when eligible.
func qualifies(u *ir.ProgramUnit, ra *rng.Analyzer, e ir.Expr, v string, assigned map[string]bool, out map[string]*candidate) bool {
	nodes := ir.CountNodes(e)
	if nodes < MinNodes {
		return false
	}
	if !ir.References(e, v) {
		return false
	}
	// Integer-typed pure arithmetic only.
	if !integerPure(u, e) {
		return false
	}
	conv := ra.Conv(e)
	if !conv.OK {
		return false
	}
	// Polynomial in v with v-free coefficients; no opaque atom may
	// depend on v, and no free variable other than v may be assigned
	// in the loop body.
	if _, inOpaque := conv.E.DegreeIn(v); inOpaque {
		return false
	}
	if deg, _ := conv.E.DegreeIn(v); deg < 1 {
		return false
	}
	for name := range conv.E.Vars() {
		if name != v && assigned[name] {
			return false
		}
	}
	key := e.String()
	if _, dup := out[key]; !dup {
		out[key] = &candidate{expr: e, sym: conv.E, nodes: nodes}
	}
	return true
}

// integerPure requires every leaf to be an integer scalar, integer
// constant, or the pure IPOW/IDIV-style operators over such; array
// reads and calls disqualify (memory may change under the loop).
func integerPure(u *ir.ProgramUnit, e ir.Expr) bool {
	ok := true
	ir.WalkExpr(e, func(n ir.Expr) bool {
		switch x := n.(type) {
		case *ir.ConstInt:
		case *ir.VarRef:
			sym := u.Symbols.Lookup(x.Name)
			if sym == nil || sym.Type != ir.TypeInteger || sym.IsArray() {
				ok = false
			}
		case *ir.Binary:
			if !x.Op.IsArith() {
				ok = false
			}
		case *ir.Unary:
			if x.Op != ir.OpNeg {
				ok = false
			}
		default:
			ok = false
		}
		return ok
	})
	return ok
}

func assignedScalars(b *ir.Block) map[string]bool {
	out := map[string]bool{}
	ir.WalkStmts(b, func(s ir.Stmt) bool {
		switch x := s.(type) {
		case *ir.AssignStmt:
			if vr, isV := x.LHS.(*ir.VarRef); isV {
				out[vr.Name] = true
			}
		case *ir.DoStmt:
			out[x.Index] = true
		case *ir.CallStmt:
			for _, a := range x.Args {
				if vr, isV := a.(*ir.VarRef); isV {
					out[vr.Name] = true
				}
			}
		}
		return true
	})
	return out
}

// findParent locates the block directly containing the loop and its
// position in it.
func findParent(root *ir.Block, loop *ir.DoStmt) (*ir.Block, int) {
	var parent *ir.Block
	pos := -1
	var walk func(b *ir.Block) bool
	walk = func(b *ir.Block) bool {
		for i, s := range b.Stmts {
			if s == loop {
				parent, pos = b, i
				return true
			}
			switch x := s.(type) {
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
	walk(root)
	return parent, pos
}

// replaceInBlock substitutes every structural occurrence of target
// inside the block with a reference to tmp.
func replaceInBlock(b *ir.Block, target ir.Expr, tmp string) {
	ir.MapStmtExprs(b, func(e ir.Expr) ir.Expr {
		if ir.Equal(e, target) {
			return ir.Var(tmp)
		}
		return e
	})
}
