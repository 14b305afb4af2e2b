package symbolic

import "math/big"

// DivInt returns a divided by the nonzero integer d (exact rational
// division; see package comment for the soundness discussion).
func DivInt(a *Expr, d int64) *Expr {
	if d == 0 {
		panic("symbolic: division by zero")
	}
	return MulRat(a, big.NewRat(1, d))
}

// SubstAtom replaces every occurrence of the atom with key atomKey by
// repl (used to resolve opaque terms such as gated values).
func (e *Expr) SubstAtom(atomKey string, repl *Expr) *Expr {
	out := &Expr{}
	for i := range e.terms {
		t := &e.terms[i]
		touched := false
		for j := range t.factors {
			if t.factors[j].atomKey() == atomKey {
				touched = true
				break
			}
		}
		if !touched {
			out.insert(*t)
			continue
		}
		part := single(term{coef: t.coef})
		for j := range t.factors {
			f := &t.factors[j]
			base := repl
			if f.atomKey() != atomKey {
				base = OpaqueAtom(f.atom)
			}
			part = Mul(part, Pow(base, f.pow))
		}
		for _, pt := range part.terms {
			out.insert(pt)
		}
	}
	return out
}

// EvalInt evaluates e over an integer variable assignment, for property
// tests. Opaque atoms make it fail.
func (e *Expr) EvalInt(vals map[string]int64) (*big.Rat, bool) {
	return e.Eval(func(a Atom) (*big.Rat, bool) {
		if a.Args != nil {
			return nil, false
		}
		v, ok := vals[a.Name]
		if !ok {
			return nil, false
		}
		return big.NewRat(v, 1), true
	})
}

// ProveEQ proves e == 0 (only by cancellation to the zero polynomial).
func (v *Env) ProveEQ(e *Expr) bool { return e.IsZero() }

// Compare classifies the relation between two expressions under the
// environment, for range propagation's expression comparison.
type CompareResult int

// Compare outcomes.
const (
	CmpUnknown CompareResult = iota
	CmpLT
	CmpLE
	CmpEQ
	CmpGE
	CmpGT
)

// Compare determines the provable relation of a versus b.
func (v *Env) Compare(a, b *Expr) CompareResult {
	d := Sub(a, b)
	if d.IsZero() {
		return CmpEQ
	}
	if v.ProveGT(d) {
		return CmpGT
	}
	if v.ProveLT(d) {
		return CmpLT
	}
	if v.ProveGE(d) {
		return CmpGE
	}
	if v.ProveLE(d) {
		return CmpLE
	}
	return CmpUnknown
}

// ProveLE proves e <= 0.
func (v *Env) ProveLE(e *Expr) bool { return v.prove(Neg(e), false, proveDepth) }

// ProveLT proves e < 0.
func (v *Env) ProveLT(e *Expr) bool { return v.prove(Neg(e), true, proveDepth) }

// Eval evaluates e with atom values supplied by env. It returns false
// if env cannot supply some atom. Opaque atoms are looked up by
// canonical key after evaluating nothing (the env receives the atom).
func (e *Expr) Eval(env func(Atom) (*big.Rat, bool)) (*big.Rat, bool) {
	total := big.NewRat(0, 1)
	for i := range e.terms {
		v := e.terms[i].coef.Rat()
		for _, f := range e.terms[i].factors {
			av, ok := env(f.atom)
			if !ok {
				return nil, false
			}
			for i := 0; i < f.pow; i++ {
				v.Mul(v, av)
			}
		}
		total.Add(total, v)
	}
	return total, true
}
