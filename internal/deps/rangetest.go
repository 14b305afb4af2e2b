package deps

import (
	"polaris/internal/ir"
	"polaris/internal/symbolic"
)

// pairEnv builds the proof environment for one access pair under a
// target loop: bounds for every loop index of the nest (innermost
// first), the enclosing context of the nest root, and the guard and
// trip-count facts that hold whenever both accesses execute.
func (t *Tester) pairEnv(n *Nest, a, b Access) *symbolic.Env {
	env := symbolic.NewEnv()
	// Subtree loops, innermost-first: collect with depths.
	type entry struct {
		d     *ir.DoStmt
		depth int
	}
	var entries []entry
	var walk func(d *ir.DoStmt, depth int)
	maxDepth := 0
	walk = func(d *ir.DoStmt, depth int) {
		entries = append(entries, entry{d, depth})
		if depth > maxDepth {
			maxDepth = depth
		}
		for _, in := range ir.InnerLoops(d) {
			walk(in, depth+1)
		}
	}
	walk(n.root, 0)
	// Push by depth descending (innermost first), stable among equals,
	// so a bound may reference any outer index.
	for d := maxDepth; d >= 0; d-- {
		for _, e := range entries {
			if e.depth == d {
				lo, hi, ok := t.Ranges.LoopRange(e.d)
				if !ok {
					continue
				}
				env.Push(e.d.Index, symbolic.Bound{Lo: lo, Hi: hi})
			}
		}
	}
	// Enclosing loops of the root (fixed outer context).
	for _, d := range ir.EnclosingLoops(t.Unit.Body, n.root) {
		lo, hi, ok := t.Ranges.LoopRange(d)
		if !ok {
			continue
		}
		env.Push(d.Index, symbolic.Bound{Lo: lo, Hi: hi})
	}
	// Facts valid when each access executes (guards + trip counts).
	for _, f := range t.Ranges.Facts(a.Stmt) {
		t.Ranges.AddFactGE(env, f)
	}
	for _, f := range t.Ranges.Facts(b.Stmt) {
		t.Ranges.AddFactGE(env, f)
	}
	// Positivity of power atoms with positive integer base (stride
	// expressions like 2**(L-1) from multiplicative induction): the
	// value is always >= 1.
	t.addPowerFacts(env, n, a)
	t.addPowerFacts(env, n, b)
	return env
}

// addPowerFacts pushes IPOW(c, x) >= 1 bounds for constant c >= 1,
// scanning the access's subscripts.
func (t *Tester) addPowerFacts(env *symbolic.Env, n *Nest, acc Access) {
	for d := range acc.Subs {
		conv := t.sub(n, acc, d).pow
		if !conv.OK {
			continue
		}
		// In term order: the order bounds enter env is the prover's
		// elimination order.
		conv.E.EachOpaqueAtom(func(key string, atom symbolic.Atom) bool {
			if atom.Call && atom.Name == "IPOW" && len(atom.Args) == 2 {
				one := symbolic.Int(1)
				if s, isConst := symbolic.ConstCompare(atom.Args[0], one); isConst && s >= 0 {
					env.Push(key, symbolic.Bound{Lo: one})
				}
			}
			return true
		})
	}
}

// elimOrder returns the indices to eliminate when computing the range
// of acc's subscript: the indices in ranged that enclose the access,
// innermost first.
func elimOrder(acc Access, ranged map[string]bool) []string {
	var out []string
	for i := len(acc.Loops) - 1; i >= 0; i-- {
		idx := acc.Loops[i].Index
		if ranged[idx] {
			out = append(out, idx)
		}
	}
	return out
}

// minMaxOver eliminates the given variables from e by monotonicity,
// returning expressions bounding e from below and above over the box.
func minMaxOver(e *symbolic.Expr, elim []string, env *symbolic.Env) (min, max *symbolic.Expr, ok bool) {
	min, max = e, e
	for _, v := range elim {
		if max.ContainsVar(v) {
			m, okM := env.MaxOver(max, v)
			if !okM {
				return nil, nil, false
			}
			max = m
		}
		if min.ContainsVar(v) {
			m, okM := env.MinOver(min, v)
			if !okM {
				return nil, nil, false
			}
			min = m
		}
	}
	return min, max, true
}

// rangeInfo is the per-iteration access range of one subscript for the
// target loop: min and max as functions of the target index and outer
// context.
type rangeInfo struct {
	min, max *symbolic.Expr
	approx   bool // rational relaxation of integer division involved
}

// proveSep proves separation sep > 0, requiring a margin of one when a
// rational relaxation was involved (floor errors are < 1).
func proveSep(env *symbolic.Env, sep *symbolic.Expr, approx bool) bool {
	if approx {
		return env.ProveGE(symbolic.Sub(sep, symbolic.Int(1)))
	}
	return env.ProveGT(sep)
}

// noCarriedDepRange applies the range test: it proves that the ranges
// of elements accessed by distinct iterations of the target loop do not
// overlap, via ascending or descending separation, or that the two
// access ranges are globally disjoint.
func (t *Tester) noCarriedDepRange(env *symbolic.Env, target string, ra, rb rangeInfo, targetBound symbolic.Bound) bool {
	approx := ra.approx || rb.approx
	next := symbolic.Add(symbolic.Var(target), symbolic.Int(1))

	sameRange := symbolic.Equal(ra.min, rb.min) && symbolic.Equal(ra.max, rb.max)

	// Ascending: max_a(v) < min_b(v+1) with min_b non-decreasing, and
	// symmetrically b before a (skipped when the ranges coincide).
	ascend := func(x, y rangeInfo) bool {
		sep := symbolic.Sub(y.min.Subst(target, next), x.max)
		if !proveSep(env, sep, approx) {
			return false
		}
		return env.MonotoneIn(y.min, target) == symbolic.MonoNonDecreasing ||
			env.MonotoneIn(y.min, target) == symbolic.MonoConstant
	}
	if ascend(ra, rb) && (sameRange || ascend(rb, ra)) {
		return true
	}

	// Descending: min_a(v) > max_b(v+1) with max_b non-increasing.
	descend := func(x, y rangeInfo) bool {
		sep := symbolic.Sub(x.min, y.max.Subst(target, next))
		if !proveSep(env, sep, approx) {
			return false
		}
		m := env.MonotoneIn(y.max, target)
		return m == symbolic.MonoNonIncreasing || m == symbolic.MonoConstant
	}
	if descend(ra, rb) && (sameRange || descend(rb, ra)) {
		return true
	}

	// Global disjointness: the two accesses never touch common elements
	// at any iteration (needs the target's own bounds to close the
	// ranges).
	if !sameRange && targetBound.Lo != nil && targetBound.Hi != nil {
		envT := env.Clone()
		envT.PushFront(target, targetBound)
		aMin, aMaxOK := envT.MinOver(ra.min, target)
		aMax, aMinOK := envT.MaxOver(ra.max, target)
		bMin, bMaxOK := envT.MinOver(rb.min, target)
		bMax, bMinOK := envT.MaxOver(rb.max, target)
		if aMaxOK && aMinOK && bMaxOK && bMinOK {
			if proveSep(envT, symbolic.Sub(bMin, aMax), approx) ||
				proveSep(envT, symbolic.Sub(aMin, bMax), approx) {
				return true
			}
		}
	}
	return false
}

// RangeTestPair proves absence of a dependence carried by the target
// loop between accesses a and b, viewing the indices in ranged as inner
// (free) — the permuted visitation order of the paper. It tests each
// array dimension independently; disjointness in any one dimension
// suffices.
func (t *Tester) RangeTestPair(n *Nest, target *ir.DoStmt, ranged map[string]bool, a, b Access) bool {
	if len(a.Subs) != len(b.Subs) {
		return false
	}
	env := t.pairEnv(n, a, b)
	tLo, tHi, tOK := t.Ranges.LoopRange(target)
	tBound := symbolic.Bound{}
	if tOK {
		tBound = symbolic.Bound{Lo: tLo, Hi: tHi}
	}
	for d := range a.Subs {
		sa, sb := t.sub(n, a, d), t.sub(n, b, d)
		if !sa.analyzable || !sb.analyzable {
			continue
		}
		ca, cb := sa.conv, sb.conv
		ra := rangeInfo{approx: ca.IntDivApprox}
		rb := rangeInfo{approx: cb.IntDivApprox}
		var ok bool
		ra.min, ra.max, ok = minMaxOver(ca.E, elimOrder(a, ranged), env)
		if !ok {
			continue
		}
		rb.min, rb.max, ok = minMaxOver(cb.E, elimOrder(b, ranged), env)
		if !ok {
			continue
		}
		if t.noCarriedDepRange(env, target.Index, ra, rb, tBound) {
			return true
		}
	}
	return false
}
