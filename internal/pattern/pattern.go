// Package pattern implements Polaris' wildcard-based structural pattern
// matching and replacement over IR expressions — the mechanism the paper
// describes as the basis of the higher-level "Forbol" tool. A pattern is
// an ordinary expression tree that may contain *ir.Wildcard nodes
// anywhere; matching binds each wildcard ID to the subexpression it
// covers, with repeated IDs required to bind structurally equal
// subexpressions.
package pattern

import (
	"polaris/internal/ir"
)

// Bindings maps wildcard IDs to the matched subexpressions. The bound
// expressions are the original nodes (not clones); callers must Clone
// before inserting them elsewhere.
type Bindings map[string]ir.Expr

// Match reports whether e matches the pattern, and the wildcard
// bindings if it does.
func Match(pat, e ir.Expr) (Bindings, bool) {
	b := Bindings{}
	if match(pat, e, b) {
		return b, true
	}
	return nil, false
}

func match(pat, e ir.Expr, b Bindings) bool {
	if w, ok := pat.(*ir.Wildcard); ok {
		if w.Pred != nil && !w.Pred(e) {
			return false
		}
		if prev, bound := b[w.ID]; bound {
			return ir.Equal(prev, e)
		}
		b[w.ID] = e
		return true
	}
	switch p := pat.(type) {
	case *ir.ConstInt:
		x, ok := e.(*ir.ConstInt)
		return ok && x.Val == p.Val
	case *ir.ConstReal:
		x, ok := e.(*ir.ConstReal)
		return ok && x.Val == p.Val
	case *ir.ConstLogical:
		x, ok := e.(*ir.ConstLogical)
		return ok && x.Val == p.Val
	case *ir.VarRef:
		x, ok := e.(*ir.VarRef)
		return ok && x.Name == p.Name
	case *ir.ArrayRef:
		x, ok := e.(*ir.ArrayRef)
		if !ok || x.Name != p.Name || len(x.Subs) != len(p.Subs) {
			return false
		}
		for i := range p.Subs {
			if !match(p.Subs[i], x.Subs[i], b) {
				return false
			}
		}
		return true
	case *ir.Binary:
		x, ok := e.(*ir.Binary)
		return ok && x.Op == p.Op && match(p.L, x.L, b) && match(p.R, x.R, b)
	case *ir.Unary:
		x, ok := e.(*ir.Unary)
		return ok && x.Op == p.Op && match(p.X, x.X, b)
	case *ir.Call:
		x, ok := e.(*ir.Call)
		if !ok || x.Name != p.Name || len(x.Args) != len(p.Args) {
			return false
		}
		for i := range p.Args {
			if !match(p.Args[i], x.Args[i], b) {
				return false
			}
		}
		return true
	}
	return false
}

// Find returns the first subexpression of e (pre-order) matching the
// pattern, with its bindings, or ok=false.
func Find(pat, e ir.Expr) (sub ir.Expr, b Bindings, ok bool) {
	ir.WalkExpr(e, func(n ir.Expr) bool {
		if ok {
			return false
		}
		if bi, m := Match(pat, n); m {
			sub, b, ok = n, bi, true
			return false
		}
		return true
	})
	return sub, b, ok
}

// Contains reports whether any subexpression of e matches the pattern.
func Contains(pat, e ir.Expr) bool {
	_, _, ok := Find(pat, e)
	return ok
}

// Instantiate builds an expression from a template containing
// wildcards, replacing each wildcard by a clone of its binding.
// Unbound wildcards are an internal error.
func Instantiate(template ir.Expr, b Bindings) ir.Expr {
	return ir.MapExpr(template, func(n ir.Expr) ir.Expr {
		if w, ok := n.(*ir.Wildcard); ok {
			bound, has := b[w.ID]
			ir.Assert(has, "pattern.Instantiate: unbound wildcard "+w.ID)
			return bound.Clone()
		}
		return n
	})
}

// ReplaceAll rewrites e, replacing every subexpression matching pat
// with the instantiated template (outermost-first, no re-scan of the
// replacement). It returns the rewritten expression and the number of
// replacements.
func ReplaceAll(e, pat, template ir.Expr) (ir.Expr, int) {
	count := 0
	var rewrite func(ir.Expr) ir.Expr
	rewrite = func(n ir.Expr) ir.Expr {
		if b, ok := Match(pat, n); ok {
			count++
			return Instantiate(template, b)
		}
		switch x := n.(type) {
		case *ir.ArrayRef:
			c := &ir.ArrayRef{Name: x.Name, Subs: make([]ir.Expr, len(x.Subs))}
			for i, s := range x.Subs {
				c.Subs[i] = rewrite(s)
			}
			return c
		case *ir.Binary:
			return &ir.Binary{Op: x.Op, L: rewrite(x.L), R: rewrite(x.R)}
		case *ir.Unary:
			return &ir.Unary{Op: x.Op, X: rewrite(x.X)}
		case *ir.Call:
			c := &ir.Call{Name: x.Name, Args: make([]ir.Expr, len(x.Args))}
			for i, a := range x.Args {
				c.Args[i] = rewrite(a)
			}
			return c
		default:
			return n.Clone()
		}
	}
	return rewrite(e), count
}

// W returns a wildcard with the given ID.
func W(id string) *ir.Wildcard { return &ir.Wildcard{ID: id} }

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

func refParts(e ir.Expr) (string, []ir.Expr) {
	switch x := e.(type) {
	case *ir.VarRef:
		return x.Name, nil
	case *ir.ArrayRef:
		return x.Name, x.Subs
	}
	return "", nil
}
