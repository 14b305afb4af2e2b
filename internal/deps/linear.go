package deps

import (
	"math/big"

	"polaris/internal/ir"
	"polaris/internal/symbolic"
)

// LinearForm is an affine subscript: Sum of Coef[v]*v over loop indices
// plus Const (which may be symbolic but index-free).
type LinearForm struct {
	Coef  map[string]int64
	Const *symbolic.Expr
}

// ExtractLinear decomposes e into an affine form over the given
// indices. ok is false for nonlinear subscripts (index products,
// symbolic coefficients, indices inside opaque atoms) — exactly the
// expressions the paper says defeat classical dependence tests.
func ExtractLinear(e *symbolic.Expr, indices []string) (LinearForm, bool) {
	lf := LinearForm{Coef: map[string]int64{}}
	rest := e
	for _, v := range indices {
		if !rest.ContainsVar(v) {
			continue
		}
		coeffs, ok := rest.CoeffsIn(v)
		if !ok || len(coeffs) > 2 {
			return lf, false
		}
		c, isConst := coeffs[1].ConstInt64()
		if !isConst {
			return lf, false
		}
		lf.Coef[v] = c
		rest = coeffs[0]
	}
	// No index may remain (e.g. inside an opaque atom argument).
	for _, v := range indices {
		if rest.ContainsVar(v) {
			return lf, false
		}
	}
	lf.Const = rest
	return lf, true
}

// loopBoundsConst returns the integer constant range of a loop, for
// Banerjee's inequalities (which need constant bounds).
func (t *Tester) loopBoundsConst(d *ir.DoStmt) (lo, hi int64, ok bool) {
	l, h, okR := t.Ranges.LoopRange(d)
	if !okR {
		return 0, 0, false
	}
	lc, ok1 := l.ConstInt64()
	hc, ok2 := h.ConstInt64()
	return lc, hc, ok1 && ok2
}

// Direction is one component of a dependence direction vector.
type Direction int

// Direction vector components.
const (
	DirAny Direction = iota // '*'
	DirEq                   // '='
	DirLt                   // '<'
	DirGt                   // '>'
)

// gcdTest refutes the dependence equation f(i) = g(i') over the
// integers: sum cf_v*i_v - sum cg_v*i'_v = Cg - Cf. It returns true
// when the equation provably has NO integer solution. The constant
// difference must evaluate to an integer constant.
func gcdTest(f, g LinearForm) (independent bool, applicable bool) {
	diff := symbolic.Sub(g.Const, f.Const)
	dc, isConst := diff.Const()
	if !isConst || !dc.IsInt() {
		return false, false
	}
	rhs := new(big.Int).Set(dc.Num())
	gcd := new(big.Int)
	addCoef := func(c int64) {
		if c == 0 {
			return
		}
		x := big.NewInt(c)
		x.Abs(x)
		if gcd.Sign() == 0 {
			gcd.Set(x)
		} else {
			gcd.GCD(nil, nil, gcd, x)
		}
	}
	for _, c := range f.Coef {
		addCoef(c)
	}
	for _, c := range g.Coef {
		addCoef(c)
	}
	if gcd.Sign() == 0 {
		// No index terms at all: dependent iff constants are equal.
		return rhs.Sign() != 0, true
	}
	m := new(big.Int).Mod(rhs, gcd)
	return m.Sign() != 0, true
}

// interval is a closed integer interval used by the Banerjee bounds.
type interval struct{ lo, hi int64 }

func (iv interval) add(o interval) interval { return interval{iv.lo + o.lo, iv.hi + o.hi} }

// scale returns the interval of c*x for x in iv.
func (iv interval) scale(c int64) interval {
	a, b := c*iv.lo, c*iv.hi
	if a > b {
		a, b = b, a
	}
	return interval{a, b}
}

// banerjeeDV bounds h = f(i) - g(i') under the given per-loop direction
// constraints and refutes the dependence when 0 lies outside the
// bounds. Loop bounds must be integer constants. The '<' and '>'
// directions use the sound relaxation i' = i + t with t in [1, U-L]
// (respectively t in [-(U-L), -1]) treating i and t as independent.
func (t *Tester) banerjeeDV(f, g LinearForm, loops []*ir.DoStmt, dirs []Direction) (independent bool, applicable bool) {
	diff := symbolic.Sub(f.Const, g.Const)
	dc, isConst := diff.ConstInt64()
	if !isConst {
		return false, false
	}
	total := interval{dc, dc}
	for li, d := range loops {
		lo, hi, ok := t.loopBoundsConst(d)
		if !ok {
			return false, false
		}
		if hi < lo {
			return true, true // zero-trip loop: no instances at all
		}
		cf := f.Coef[d.Index]
		cg := g.Coef[d.Index]
		if cf == 0 && cg == 0 {
			continue
		}
		iv := interval{lo, hi}
		switch dirs[li] {
		case DirEq:
			total = total.add(iv.scale(cf - cg))
		case DirAny:
			total = total.add(iv.scale(cf)).add(iv.scale(-cg))
		case DirLt:
			if hi == lo {
				return true, true // cannot have i < i' in a 1-trip loop
			}
			// i in [lo, hi-1], t = i'-i in [1, hi-lo]
			total = total.add(interval{lo, hi - 1}.scale(cf - cg)).
				add(interval{1, hi - lo}.scale(-cg))
		case DirGt:
			if hi == lo {
				return true, true
			}
			// i in [lo+1, hi], t = i-i' in [1, hi-lo]
			total = total.add(interval{lo + 1, hi}.scale(cf - cg)).
				add(interval{1, hi - lo}.scale(cg))
		}
	}
	return total.lo > 0 || total.hi < 0, true
}

// LinearNoCarriedDep refutes, with the classical GCD + Banerjee tests,
// any dependence between accesses with linear forms f and g carried at
// level target of the common nest: direction vectors (=,...,=,<,*,...)
// and (=,...,=,>,*,...). It returns (true, true) when both are refuted.
func (t *Tester) LinearNoCarriedDep(f, g LinearForm, loops []*ir.DoStmt, target int) (independent bool, applicable bool) {
	if ind, app := gcdTest(f, g); app && ind {
		return true, true
	}
	for _, dir := range []Direction{DirLt, DirGt} {
		dirs := make([]Direction, len(loops))
		for i := range dirs {
			switch {
			case i < target:
				dirs[i] = DirEq
			case i == target:
				dirs[i] = dir
			default:
				dirs[i] = DirAny
			}
		}
		ind, app := t.banerjeeDV(f, g, loops, dirs)
		if !app {
			return false, false
		}
		if !ind {
			return false, true
		}
	}
	return true, true
}

// BanerjeeAllDVs exhaustively tests every full direction vector (3^n of
// them) and returns the number refuted along with the count tested —
// the worst-case behaviour the paper contrasts with the range test's
// O(n^2). Used by the evaluation harness, not the compiler driver.
func (t *Tester) BanerjeeAllDVs(f, g LinearForm, loops []*ir.DoStmt) (refuted, tested int) {
	n := len(loops)
	dirs := make([]Direction, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			tested++
			if ind, app := t.banerjeeDV(f, g, loops, dirs); app && ind {
				refuted++
			}
			return
		}
		for _, d := range []Direction{DirLt, DirEq, DirGt} {
			dirs[i] = d
			rec(i + 1)
		}
	}
	rec(0)
	return refuted, tested
}
