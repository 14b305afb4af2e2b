// Package reduction implements Polaris' reduction recognition (Section
// 3.2 of the paper): statements of the idiom
//
//	A(a1,...,an) = A(a1,...,an) + expr      (n may be 0)
//
// where the a_i and expr do not reference A and A is not referenced
// elsewhere in the loop outside other reduction statements on A. Both
// single-address reductions (scalars or one fixed element) and
// histogram reductions (different elements in different iterations) are
// recognized. Candidates are flagged first (MatchReductionStmt and its
// multiplicative and MAX/MIN siblings); the driver later validates them
// against the dependence pass and removes the flags of statements whose
// loop is otherwise provably parallel, as the paper describes.
//
// MAX/MIN reductions through the intrinsic idiom S = MAX(S, expr) are
// recognized as an extension.
package reduction

import (
	"sort"

	"polaris/internal/ir"
)

// Candidate is one recognized reduction group in a loop.
type Candidate struct {
	Target string
	Op     string // "+", "*", "MAX", "MIN"
	// Stmts are the update statements of the group.
	Stmts []*ir.AssignStmt
	// Histogram is true when the target is an array indexed by
	// iteration-variant subscripts.
	Histogram bool
}

// IsArray reports whether the candidate accumulates into array
// elements (as opposed to a scalar).
func (c *Candidate) IsArray() bool {
	for _, s := range c.Stmts {
		if _, ok := s.LHS.(*ir.ArrayRef); ok {
			return true
		}
	}
	return false
}

// Result lists recognized reductions for one loop.
type Result struct {
	Candidates []Candidate
}

// SkipSet returns the set of reduction statements, for masking in the
// dependence pass.
func (r *Result) SkipSet() map[ir.Stmt]bool {
	out := map[ir.Stmt]bool{}
	for _, c := range r.Candidates {
		for _, s := range c.Stmts {
			out[s] = true
		}
	}
	return out
}

// Reductions converts the candidates to IR annotations.
func (r *Result) Reductions() []ir.Reduction {
	out := make([]ir.Reduction, 0, len(r.Candidates))
	for _, c := range r.Candidates {
		out = append(out, ir.Reduction{Target: c.Target, Op: c.Op, Histogram: c.Histogram})
	}
	return out
}

// Recognize flags reduction candidates in the loop. A variable forms a
// valid group only if every reference to it inside the loop body is
// part of an update statement of a single operation kind.
func Recognize(u *ir.ProgramUnit, loop *ir.DoStmt) *Result {
	type group struct {
		op        string
		stmts     []*ir.AssignStmt
		histogram bool
		valid     bool
	}
	groups := map[string]*group{}

	// Pass 1: find update statements.
	ir.WalkStmts(loop.Body, func(s ir.Stmt) bool {
		as, ok := s.(*ir.AssignStmt)
		if !ok {
			return true
		}
		name, subs, op, okR := matchUpdate(as)
		if !okR {
			return true
		}
		g := groups[name]
		if g == nil {
			g = &group{op: op, valid: true}
			groups[name] = g
		}
		if g.op != op {
			g.valid = false
			return true
		}
		g.stmts = append(g.stmts, as)
		if len(subs) > 0 && subsVary(subs, loop) {
			g.histogram = true
		}
		return true
	})

	// Pass 2: any reference outside the group's statements invalidates.
	inGroup := map[ir.Stmt]map[string]bool{}
	for name, g := range groups {
		for _, s := range g.stmts {
			if inGroup[s] == nil {
				inGroup[s] = map[string]bool{}
			}
			inGroup[s][name] = true
		}
	}
	ir.WalkStmts(loop.Body, func(s ir.Stmt) bool {
		for name, g := range groups {
			if !g.valid || (inGroup[s] != nil && inGroup[s][name]) {
				continue
			}
			for _, e := range ir.StmtExprs(s) {
				if ir.References(e, name) {
					g.valid = false
				}
			}
			if d, ok := s.(*ir.DoStmt); ok && d.Index == name {
				g.valid = false
			}
		}
		return true
	})

	res := &Result{}
	names := make([]string, 0, len(groups))
	for n := range groups {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		g := groups[name]
		if !g.valid {
			continue
		}
		// The target must not be the loop index.
		if name == loop.Index {
			continue
		}
		// Live-out targets are fine: the reduced value is the final
		// value in sequential order too (associativity permitting; the
		// user-visible -no-reduction switch disables the transform, as
		// in Polaris).
		res.Candidates = append(res.Candidates, Candidate{
			Target:    name,
			Op:        g.op,
			Stmts:     g.stmts,
			Histogram: g.histogram,
		})
	}
	return res
}

// matchUpdate matches one reduction update statement and returns the
// target, subscripts and operation.
func matchUpdate(as *ir.AssignStmt) (name string, subs []ir.Expr, op string, ok bool) {
	// Additive (covers subtraction via negation).
	if n, s, _, okA := MatchReductionStmt(as); okA {
		return n, s, "+", true
	}
	// Multiplicative: X = X * expr (real-typed accumulators; integer
	// multiplicative recurrences are induction variables and are
	// handled there first).
	if b, isB := as.RHS.(*ir.Binary); isB && b.Op == ir.OpMul {
		if n, s, okM := sideMatch(as.LHS, b.L, b.R); okM {
			return n, s, "*", true
		}
	}
	// MAX/MIN: X = MAX(X, expr) or MAX(expr, X).
	if c, isC := as.RHS.(*ir.Call); isC && (c.Name == "MAX" || c.Name == "MIN" || c.Name == "AMAX1" || c.Name == "AMIN1" || c.Name == "MAX0" || c.Name == "MIN0") && len(c.Args) == 2 {
		opName := "MAX"
		if c.Name == "MIN" || c.Name == "AMIN1" || c.Name == "MIN0" {
			opName = "MIN"
		}
		if n, s, okM := sideMatch(as.LHS, c.Args[0], c.Args[1]); okM {
			return n, s, opName, true
		}
	}
	return "", nil, "", false
}

// MatchReductionStmt matches the Polaris reduction idiom
//
//	A(a1,...,an) = A(a1,...,an) op expr    (n may be 0: scalar)
//
// where op is + or -, the subscripts a_i and expr do not reference A.
// It returns the target name, the subscripts, the accumulated
// expression (normalized so the operation is always "+"; for "-" the
// expression is negated), and ok.
func MatchReductionStmt(s *ir.AssignStmt) (target string, subs []ir.Expr, addend ir.Expr, ok bool) {
	rhs, isBin := s.RHS.(*ir.Binary)
	if !isBin || (rhs.Op != ir.OpAdd && rhs.Op != ir.OpSub) {
		return "", nil, nil, false
	}
	name, lhsSubs := refParts(s.LHS)
	if name == "" {
		return "", nil, nil, false
	}
	// The LHS reference must reappear as one side of the RHS; for "-"
	// only A = A - expr is a reduction (not A = expr - A).
	var other ir.Expr
	if ir.Equal(rhs.L, s.LHS) {
		other = rhs.R
	} else if rhs.Op == ir.OpAdd && ir.Equal(rhs.R, s.LHS) {
		other = rhs.L
	} else {
		return "", nil, nil, false
	}
	if ir.References(other, name) {
		return "", nil, nil, false
	}
	for _, sub := range lhsSubs {
		if ir.References(sub, name) {
			return "", nil, nil, false
		}
	}
	if rhs.Op == ir.OpSub {
		other = ir.Neg(other.Clone())
	}
	return name, lhsSubs, other, true
}

// sideMatch checks that one of l, r equals the LHS reference and the
// other does not reference its base name.
func sideMatch(lhs, l, r ir.Expr) (string, []ir.Expr, bool) {
	name, subs := refParts(lhs)
	if name == "" {
		return "", nil, false
	}
	var other ir.Expr
	switch {
	case ir.Equal(l, lhs):
		other = r
	case ir.Equal(r, lhs):
		other = l
	default:
		return "", nil, false
	}
	if ir.References(other, name) {
		return "", nil, false
	}
	for _, s := range subs {
		if ir.References(s, name) {
			return "", nil, false
		}
	}
	return name, subs, true
}

func refParts(e ir.Expr) (string, []ir.Expr) {
	switch x := e.(type) {
	case *ir.VarRef:
		return x.Name, nil
	case *ir.ArrayRef:
		return x.Name, x.Subs
	}
	return "", nil
}

// subsVary reports whether any subscript references the loop index or
// an inner loop index or any array (subscripted subscripts): the
// histogram case.
func subsVary(subs []ir.Expr, loop *ir.DoStmt) bool {
	indices := map[string]bool{loop.Index: true}
	for _, d := range ir.Loops(loop.Body) {
		indices[d.Index] = true
	}
	for _, s := range subs {
		if len(ir.ArraysIn(s)) > 0 {
			return true
		}
		for v := range ir.VarsIn(s) {
			if indices[v] {
				return true
			}
		}
	}
	return false
}
