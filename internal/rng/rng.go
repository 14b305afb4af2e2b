// Package rng implements range propagation: the determination of
// symbolic lower and upper bounds for integer variables from the
// program's control flow (PARAMETER constants, constant assignments,
// DO-loop bounds, and IF guards), feeding the expression-comparison
// capability the range test and the privatizer rely on (Section 3.3 of
// the Polaris paper).
package rng

import (
	"sort"

	"polaris/internal/ir"
	"polaris/internal/symbolic"
)

// Analyzer holds per-unit range information in two parts with two
// lifetimes. The constant table, built at New time, is read off the
// unit's declarations, assignments, DO indices and CALL arguments: it
// stays valid until a pass rewrites the unit, and the driver keeps one
// Analyzer per unit across passes on that condition, constructing a
// fresh one after a pass reports a rewrite (a transformation pass keeps
// the one it was given while it runs, and only calls Conv). The Facts,
// LoopRange and AddFactGE caches are keyed by statement and fact
// pointers and assume the IR is not mutated while they are in use;
// ReleaseCaches drops them when the analysis that filled them is done.
type Analyzer struct {
	unit *ir.ProgramUnit
	// lv is the compile's leaf table, which every conversion of the unit
	// takes its constants and free variables from.
	lv *symbolic.Leaves
	// consts maps scalar names to their propagated symbolic values
	// (PARAMETER constants and provably single-assigned constants).
	consts map[string]*symbolic.Expr
	// facts caches Facts per target statement; the range test asks for
	// the same statement's facts once per access pair (O(n^2) times).
	// Callers must not mutate the returned slices.
	facts map[ir.Stmt][]*symbolic.Expr
	// elemFacts holds the facts one enclosing DO or IF branch
	// contributes, built once, so every statement below it carries the
	// same fact pointers and factBounds decomposes each fact once.
	elemFacts map[pathElem][]*symbolic.Expr
	// loopRanges caches converted DO bounds per loop statement.
	loopRanges map[*ir.DoStmt]loopRange
	// factBounds caches each fact's decomposition into variable bounds,
	// keyed by the fact's pointer (stable because elemFacts holds the
	// one copy of each).
	factBounds map[*symbolic.Expr][]factBound
}

type loopRange struct {
	lo, hi *symbolic.Expr
	ok     bool
}

// New analyzes a program unit. The analysis is flow-insensitive for
// constants (a scalar qualifies only when assigned exactly once,
// unconditionally, at the top level, from an expression that resolves
// to already-known constants) and flow-sensitive for guards and loop
// bounds, which are collected per target statement. lv is the leaf
// table of the compile the unit belongs to.
func New(u *ir.ProgramUnit, lv *symbolic.Leaves) *Analyzer {
	a := &Analyzer{unit: u, lv: lv, consts: map[string]*symbolic.Expr{}}
	a.ReleaseCaches()
	for _, s := range u.Symbols.All() {
		if s.Param != nil {
			if c := a.Conv(s.Param); c.OK {
				a.consts[s.Name] = c.E
			}
		}
	}
	a.propagateConstants()
	return a
}

// ReleaseCaches empties the per-statement caches, leaving the constant
// table: what Conv, Consts and Resolver read. The Analyzer stays fully
// usable; the next Facts or LoopRange call starts cold.
func (a *Analyzer) ReleaseCaches() {
	a.facts = map[ir.Stmt][]*symbolic.Expr{}
	a.elemFacts = map[pathElem][]*symbolic.Expr{}
	a.loopRanges = map[*ir.DoStmt]loopRange{}
	a.factBounds = map[*symbolic.Expr][]factBound{}
}

// propagateConstants finds scalars with a unique unconditional
// top-level assignment whose RHS resolves to constants, iterating to a
// fixpoint so chains like N=10, M=N*2 resolve.
func (a *Analyzer) propagateConstants() {
	// Disqualify anything assigned more than once, assigned under
	// control flow, used as a DO index, passed to a CALL (may be
	// modified by reference), living in COMMON, or a formal.
	assignCount := map[string]int{}
	topLevel := map[string]*ir.AssignStmt{}
	disqualified := map[string]bool{}
	for _, name := range a.unit.Formals {
		disqualified[name] = true
	}
	for _, s := range a.unit.Symbols.All() {
		if s.Common != "" {
			disqualified[s.Name] = true
		}
	}
	ir.WalkStmts(a.unit.Body, func(s ir.Stmt) bool {
		switch x := s.(type) {
		case *ir.AssignStmt:
			if v, ok := x.LHS.(*ir.VarRef); ok {
				assignCount[v.Name]++
			}
		case *ir.DoStmt:
			disqualified[x.Index] = true
		case *ir.CallStmt:
			for _, arg := range x.Args {
				if v, ok := arg.(*ir.VarRef); ok {
					disqualified[v.Name] = true
				}
			}
		}
		return true
	})
	for _, s := range a.unit.Body.Stmts {
		if x, ok := s.(*ir.AssignStmt); ok {
			if v, ok := x.LHS.(*ir.VarRef); ok {
				topLevel[v.Name] = x
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for name, st := range topLevel {
			if disqualified[name] || assignCount[name] != 1 {
				continue
			}
			if _, done := a.consts[name]; done {
				continue
			}
			conv := a.Conv(st.RHS)
			if !conv.OK {
				continue
			}
			// Only adopt fully resolved values (no free variables or
			// opaque terms) — those are safe at every later point.
			if len(conv.E.Vars()) == 0 && !conv.E.HasOpaque() {
				a.consts[name] = conv.E
				changed = true
			}
		}
	}
}

// Consts returns the propagated constant table (read-only view).
func (a *Analyzer) Consts() map[string]*symbolic.Expr { return a.consts }

// Resolver returns the symbolic resolver substituting propagated
// constants. It is safe to call during construction: lookups are
// dynamic.
func (a *Analyzer) Resolver() symbolic.Resolver {
	return func(name string) *symbolic.Expr { return a.consts[name] }
}

// Leaves returns the compile's leaf table the Analyzer converts with.
func (a *Analyzer) Leaves() *symbolic.Leaves { return a.lv }

// Conv converts an IR expression using the unit's resolver.
func (a *Analyzer) Conv(e ir.Expr) symbolic.Conv {
	return symbolic.FromIR(e, a.lv, a.Resolver())
}

// LoopRange returns the closed box [lo, hi] of values the loop index
// takes (normalized so lo <= hi for constant negative steps). ok is
// false when the bounds do not convert or the step is symbolic with
// unknown sign.
func (a *Analyzer) LoopRange(d *ir.DoStmt) (lo, hi *symbolic.Expr, ok bool) {
	if r, hit := a.loopRanges[d]; hit {
		return r.lo, r.hi, r.ok
	}
	lo, hi, ok = a.loopRange(d)
	a.loopRanges[d] = loopRange{lo: lo, hi: hi, ok: ok}
	return lo, hi, ok
}

func (a *Analyzer) loopRange(d *ir.DoStmt) (lo, hi *symbolic.Expr, ok bool) {
	init := a.Conv(d.Init)
	limit := a.Conv(d.Limit)
	if !init.OK || !limit.OK {
		return nil, nil, false
	}
	step := a.Conv(d.StepOr1())
	if !step.OK {
		return nil, nil, false
	}
	sign, isConst := step.E.ConstSign()
	if !isConst || sign == 0 {
		return nil, nil, false
	}
	if sign > 0 {
		return init.E, limit.E, true
	}
	return limit.E, init.E, true
}

// Facts returns the list of expressions provably >= 0 at the target
// statement, derived from:
//
//   - enclosing IF guards (THEN branches add the guard, ELSE branches
//     its negation, for integer relational conditions);
//   - enclosing DO statements: inside a loop body the trip count is
//     positive, so limit - index >= 0, index - init >= 0 and
//     limit - init >= 0 hold (for positive constant step; mirrored for
//     negative step).
func (a *Analyzer) Facts(target ir.Stmt) []*symbolic.Expr {
	if f, hit := a.facts[target]; hit {
		return f
	}
	var facts []*symbolic.Expr
	if path, found := a.pathTo(target); found {
		for _, pe := range path {
			f, hit := a.elemFacts[pe]
			if !hit {
				if pe.do != nil {
					f = a.loopFacts(pe.do)
				} else {
					f = a.condFacts(pe.ifStmt.Cond, pe.inElse)
				}
				a.elemFacts[pe] = f
			}
			facts = append(facts, f...)
		}
	}
	a.facts[target] = facts
	return facts
}

type pathElem struct {
	do     *ir.DoStmt
	ifStmt *ir.IfStmt
	inElse bool
}

func (a *Analyzer) pathTo(target ir.Stmt) ([]pathElem, bool) {
	var path []pathElem
	var walk func(b *ir.Block) bool
	walk = func(b *ir.Block) bool {
		if b == nil {
			return false
		}
		for _, s := range b.Stmts {
			if s == target {
				return true
			}
			switch x := s.(type) {
			case *ir.DoStmt:
				path = append(path, pathElem{do: x})
				if walk(x.Body) {
					return true
				}
				path = path[:len(path)-1]
			case *ir.IfStmt:
				path = append(path, pathElem{ifStmt: x})
				if walk(x.Then) {
					return true
				}
				path[len(path)-1].inElse = true
				if walk(x.Else) {
					return true
				}
				path = path[:len(path)-1]
			}
		}
		return false
	}
	return path, walk(a.unit.Body)
}

func (a *Analyzer) loopFacts(d *ir.DoStmt) []*symbolic.Expr {
	lo, hi, ok := a.LoopRange(d)
	if !ok {
		return nil
	}
	idx := a.lv.Var(d.Index)
	return []*symbolic.Expr{
		symbolic.Sub(idx, lo), // index >= lo
		symbolic.Sub(hi, idx), // index <= hi
		symbolic.Sub(hi, lo),  // the body executes: trip >= 1
	}
}

// condFacts converts a relational guard into >=0 facts. Only integer
// comparisons produce facts; negate handles the ELSE branch.
func (a *Analyzer) condFacts(cond ir.Expr, negate bool) []*symbolic.Expr {
	switch x := cond.(type) {
	case *ir.Binary:
		if x.Op == ir.OpAnd && !negate {
			return append(a.condFacts(x.L, false), a.condFacts(x.R, false)...)
		}
		if x.Op == ir.OpOr && negate {
			// .NOT.(a .OR. b) == .NOT.a .AND. .NOT.b
			return append(a.condFacts(x.L, true), a.condFacts(x.R, true)...)
		}
		if !x.Op.IsRelational() {
			return nil
		}
		if !a.isIntExpr(x.L) || !a.isIntExpr(x.R) {
			return nil
		}
		l := a.Conv(x.L)
		r := a.Conv(x.R)
		if !l.OK || !r.OK || l.IntDivApprox || r.IntDivApprox {
			return nil
		}
		op := x.Op
		if negate {
			op = negateRel(op)
		}
		d := symbolic.Sub(l.E, r.E)
		one := a.lv.Int(1)
		switch op {
		case ir.OpGe:
			return []*symbolic.Expr{d}
		case ir.OpGt:
			return []*symbolic.Expr{symbolic.Sub(d, one)}
		case ir.OpLe:
			return []*symbolic.Expr{symbolic.Neg(d)}
		case ir.OpLt:
			return []*symbolic.Expr{symbolic.Sub(symbolic.Neg(d), one)}
		case ir.OpEq:
			return []*symbolic.Expr{d, symbolic.Neg(d)}
		case ir.OpNe:
			return nil
		}
	case *ir.Unary:
		if x.Op == ir.OpNot {
			return a.condFacts(x.X, !negate)
		}
	}
	return nil
}

func negateRel(op ir.BinOp) ir.BinOp {
	switch op {
	case ir.OpEq:
		return ir.OpNe
	case ir.OpNe:
		return ir.OpEq
	case ir.OpLt:
		return ir.OpGe
	case ir.OpLe:
		return ir.OpGt
	case ir.OpGt:
		return ir.OpLe
	case ir.OpGe:
		return ir.OpLt
	}
	return op
}

func (a *Analyzer) isIntExpr(e ir.Expr) bool {
	ok := true
	ir.WalkExpr(e, func(n ir.Expr) bool {
		switch x := n.(type) {
		case *ir.ConstReal:
			ok = false
		case *ir.VarRef:
			if s := a.unit.Symbols.Lookup(x.Name); s == nil || s.Type != ir.TypeInteger {
				ok = false
			}
		case *ir.ArrayRef:
			if s := a.unit.Symbols.Lookup(x.Name); s == nil || s.Type != ir.TypeInteger {
				ok = false
			}
		case *ir.Call:
			ok = false // conservative
		}
		return ok
	})
	return ok
}

// factBound is one variable bound implied by a fact e >= 0: v >= bound
// when lower, v <= bound otherwise.
type factBound struct {
	v     string
	bound *symbolic.Expr
	lower bool
}

// AddFactGE folds the fact e >= 0 into the environment as variable
// bounds: for every variable v where e has the shape  +v + rest  or
// -v + rest  with v of degree one, the implied bound on v is recorded
// unless a tighter one already exists on that side. Facts that do not
// decompose are dropped (the prover works from bounds only).
//
// The decomposition depends on the fact alone, so it is computed once
// per fact and replayed against each environment; only the comparison
// with the bound already in env is per call. It is kept under e's
// pointer for the life of the Analyzer, so e should be a fact Facts
// returned, not one built for the call.
func (a *Analyzer) AddFactGE(env *symbolic.Env, e *symbolic.Expr) {
	bounds, hit := a.factBounds[e]
	if !hit {
		bounds = decompose(e)
		a.factBounds[e] = bounds
	}
	for _, fb := range bounds {
		b, _ := env.Lookup(fb.v)
		side := &b.Hi
		if fb.lower {
			side = &b.Lo
		}
		if better(fb.bound, *side, fb.lower) {
			*side = fb.bound
			env.Push(fb.v, b)
		}
	}
}

// decompose lists the variable bounds e >= 0 implies, in variable-name
// order.
func decompose(e *symbolic.Expr) []factBound {
	set := e.Vars()
	vars := make([]string, 0, len(set))
	for v := range set {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var out []factBound
	for _, v := range vars {
		coeffs, ok := e.CoeffsIn(v)
		if !ok || len(coeffs) != 2 {
			continue
		}
		switch c, _ := coeffs[1].ConstInt64(); c {
		case 1:
			// v + rest >= 0  =>  v >= -rest
			out = append(out, factBound{v: v, bound: symbolic.Neg(coeffs[0]), lower: true})
		case -1:
			// -v + rest >= 0  =>  v <= rest
			out = append(out, factBound{v: v, bound: coeffs[0]})
		}
	}
	return out
}

// better reports whether the candidate bound should replace the
// current one: always when none exists; when both are constants, the
// tighter wins.
func better(cand, cur *symbolic.Expr, isLower bool) bool {
	if cur == nil {
		return true
	}
	if s, ok := symbolic.ConstCompare(cand, cur); ok {
		if isLower {
			return s > 0
		}
		return s < 0
	}
	return false
}
