package symbolic

import (
	"math/big"
	"testing"

	"polaris/internal/ir"
)

// checkInvariant asserts the representation invariant of each
// polynomial and of every polynomial nested in its atoms' arguments:
// monomial keys strictly ascending (so "" comes first and no key
// repeats), no zero coefficient, every term's key the rendering of its
// factors, and factors strictly ascending by a precomputed atom key
// with positive powers.
func checkInvariant(t testing.TB, es ...*Expr) {
	t.Helper()
	for _, e := range es {
		for i := range e.terms {
			tm := &e.terms[i]
			if i > 0 && e.terms[i-1].mk >= tm.mk {
				t.Fatalf("terms out of order: %q before %q", e.terms[i-1].mk, tm.mk)
			}
			if tm.coef.Sign() == 0 {
				t.Fatalf("zero coefficient on %q", tm.mk)
			}
			if want := monoKey(tm.factors); tm.mk != want {
				t.Fatalf("term key %q, factors render %q", tm.mk, want)
			}
			for j := range tm.factors {
				f := &tm.factors[j]
				if f.atom.ck == "" || f.atom.ck != f.atom.computeKey() {
					t.Fatalf("factor of %q: cached atom key %q, computed %q", tm.mk, f.atom.ck, f.atom.computeKey())
				}
				if j > 0 && tm.factors[j-1].atom.ck >= f.atom.ck {
					t.Fatalf("factors of %q out of order", tm.mk)
				}
				if f.pow <= 0 {
					t.Fatalf("factor %q of %q has power %d", f.atom.ck, tm.mk, f.pow)
				}
				checkInvariant(t, f.atom.Args...)
			}
		}
	}
}

// render is String() without the cache: what e's terms say now.
func render(e *Expr) string { return (&Expr{terms: e.terms}).String() }

// TestOperandsAreNotMutated: results share factor slices (and, for a
// zero operand, the Expr itself) with their operands and nothing clones
// defensively, so every operation must leave its operands' terms alone.
func TestOperandsAreNotMutated(t *testing.T) {
	build := func() *Expr {
		// 3 - 1/2*I + I*IND(I+J) + 2*I*N^2: a constant, a fraction, an
		// opaque atom mentioning the substituted variable, a power.
		return Add(Sub(Int(3), DivInt(Var("I"), 2)),
			Mul(Var("I"), Add(Opaque("IND", Add(Var("I"), Var("J"))), Mul(Int(2), Pow(Var("N"), 2)))))
	}
	a, b := build(), Add(Var("I"), Int(1))
	wantA, wantB := a.String(), b.String()
	env := func(at Atom) (*big.Rat, bool) {
		if at.Args != nil {
			return big.NewRat(7, 1), true
		}
		return big.NewRat(int64(len(at.Name))+int64(at.Name[0]), 3), true
	}
	wantVal, _ := build().Eval(env)

	derived := []*Expr{
		Add(a, b), Add(b, a), Sub(a, b), Sub(b, a), Sub(a, a), Neg(a), Mul(a, b), Mul(a, a),
		Mul(a, Int(-2)), MulRat(a, big.NewRat(2, 3)), Pow(a, 2),
		a.Subst("I", b), a.Subst("J", a), a.SubstAtom("IND(I^1+J^1)", b), a.ForwardDiff("I"),
		Add(a, Zero()), Sub(a, Zero()),
	}
	cs, ok := a.CoeffsIn("N")
	if !ok {
		t.Fatal("CoeffsIn(N) failed")
	}
	derived = append(derived, cs...)
	// Building on the results must not reach back either.
	for _, d := range derived {
		derived = append(derived, Add(d, b), Mul(d, b), Neg(d))
	}
	checkInvariant(t, a, b)
	checkInvariant(t, derived...)
	if got := render(a); got != wantA {
		t.Errorf("a changed: %s, was %s", got, wantA)
	}
	if got := render(b); got != wantB {
		t.Errorf("b changed: %s, was %s", got, wantB)
	}
	if got, _ := a.Eval(env); got.Cmp(wantVal) != 0 {
		t.Errorf("a evaluates to %s, was %s", got, wantVal)
	}
}

func TestEachOpaqueAtom(t *testing.T) {
	ind := Opaque("IND", Var("K"))
	f := OpaqueAtom(Atom{Name: "F", Args: []*Expr{Opaque("G", Var("I"))}, Call: true})
	// IND(K) occurs in three terms, F in one; G only inside F's argument.
	e := Add(Add(Mul(ind, Var("I")), Pow(ind, 2)), Add(Mul(ind, f), Int(4)))
	var keys []string
	e.EachOpaqueAtom(func(key string, a Atom) bool {
		if key != a.key() {
			t.Errorf("key %q for atom %q", key, a.key())
		}
		keys = append(keys, key)
		return true
	})
	if want := []string{"@F(G(I^1)^1)", "IND(K^1)"}; len(keys) != 2 || keys[0] != want[0] || keys[1] != want[1] {
		t.Errorf("visited %q, want %q (each distinct atom once, in term order)", keys, want)
	}
	if set := e.OpaqueAtoms(); len(set) != 2 || set["IND(K^1)"].Name != "IND" || !set["@F(G(I^1)^1)"].Call {
		t.Errorf("OpaqueAtoms = %v", set)
	}
	n := 0
	e.EachOpaqueAtom(func(string, Atom) bool { n++; return false })
	if n != 1 {
		t.Errorf("visit continued after false: %d calls", n)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		e.EachOpaqueAtom(func(string, Atom) bool { return true })
	}); allocs != 0 {
		t.Errorf("EachOpaqueAtom allocates %v times per walk", allocs)
	}
}

var allocSink *Expr

// TestExprAllocBudget pins what the flat layout buys: a polynomial is
// an Expr and one term slice (one allocation for a single term), and
// the caches make repeats free.
func TestExprAllocBudget(t *testing.T) {
	a := Add(Var("I"), Int(1))
	b := Sub(Var("N"), Int(2))
	cube := Pow(Var("I"), 3)
	// A linearized subscript: its first difference in I is N + 3, read
	// off as an Expr, its two terms, the factor N with its key, and the
	// cache entry. By substitution it took 20.
	lin := Add(Add(Mul(Var("I"), Var("N")), Mul(Int(3), Var("I"))), Var("J"))
	// A compile's leaf table builds a variable or a constant once; after
	// that, converting one costs nothing, and I+1 only its sum.
	lv := NewLeaves()
	irI, irSub := ir.Var("I"), ir.Add(ir.Var("I"), ir.Int(1))
	cases := []struct {
		name string
		max  float64
		f    func()
	}{
		{"Var", 3, func() { allocSink = Var("I") }},
		{"Int", 2, func() { allocSink = Int(7) }},
		{"table Var", 0, func() { allocSink = lv.Var("I") }},
		{"table Int", 0, func() { allocSink = lv.Int(7) }},
		{"FromIR of a variable", 0, func() { allocSink = FromIR(irI, lv, nil).E }},
		{"FromIR of I+1", 2, func() { allocSink = FromIR(irSub, lv, nil).E }},
		{"Add", 2, func() { allocSink = Add(a, b) }},
		{"Sub", 2, func() { allocSink = Sub(a, b) }},
		{"Neg", 2, func() { a.neg = nil; allocSink = Neg(a) }},
		{"scale", 2, func() { allocSink = scale(a, qvInt(3)) }},
		{"second Neg", 0, func() { allocSink = Neg(b) }},
		{"second String", 0, func() { _ = a.String() }},
		{"ForwardDiff", 5, func() { lin.fd = nil; allocSink = lin.ForwardDiff("I") }},
		{"second ForwardDiff", 0, func() { allocSink = cube.ForwardDiff("I") }},
		{"Equal", 0, func() { _ = Equal(a, b) }},
		{"ConstInt64", 0, func() { _, _ = a.ConstInt64() }},
	}
	for _, c := range cases {
		c.f() // fill the caches the "second" cases read
		if got := testing.AllocsPerRun(200, c.f); got > c.max {
			t.Errorf("%s: %v allocations, budget %v", c.name, got, c.max)
		}
	}
}

// FuzzExprAlgebra drives a random sequence of operations over a pool of
// polynomials. Each pool entry carries a shadow: the same value as a
// function from a variable assignment to a big.Rat, composed with plain
// big.Rat arithmetic. After every operation the result must satisfy the
// representation invariant and evaluate to its shadow; at the end every
// entry must still render and evaluate as it did when it was made.
func FuzzExprAlgebra(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 5, 1, 0, 4, 0, 1, 6, 1, 0, 9, 0, 1})
	f.Add([]byte{4, 250, 7, 3, 0, 0, 5, 1, 0, 11, 0, 1, 6, 2, 2, 7, 3, 3, 12, 4, 0})
	f.Add([]byte{0, 0, 1, 1, 1, 2, 10, 0, 1, 6, 3, 3, 8, 4, 0, 13, 5, 1, 5, 6, 2, 9, 7, 1, 14, 8, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		names := []string{"X", "Y", "Z"}
		vars := map[string]*big.Rat{}
		for i, n := range names {
			vars[n] = big.NewRat(int64(int8(data[i]))%5, 1)
		}
		data = data[3:]

		type shadow func(map[string]*big.Rat) *big.Rat
		// The uninterpreted F is given one meaning on both sides (linear,
		// so nesting it does not blow the values up).
		opaqueF := func(x *big.Rat) *big.Rat {
			return new(big.Rat).Add(new(big.Rat).Mul(x, big.NewRat(-3, 1)), big.NewRat(1, 2))
		}
		var evalIn func(e *Expr, vs map[string]*big.Rat) *big.Rat
		evalIn = func(e *Expr, vs map[string]*big.Rat) *big.Rat {
			v, ok := e.Eval(func(a Atom) (*big.Rat, bool) {
				if a.Args == nil {
					x, ok := vs[a.Name]
					return x, ok
				}
				return opaqueF(evalIn(a.Args[0], vs)), true
			})
			if !ok {
				t.Fatalf("Eval(%s) failed", e)
			}
			return v
		}
		with := func(vs map[string]*big.Rat, name string, x *big.Rat) map[string]*big.Rat {
			out := map[string]*big.Rat{name: x}
			for k, v := range vs {
				if k != name {
					out[k] = v
				}
			}
			return out
		}
		rat := func(n, d int64) shadow {
			return func(map[string]*big.Rat) *big.Rat { return big.NewRat(n, d) }
		}

		// w bounds an entry's degree, coefficient growth and the cost of
		// calling its shadow; an operation whose result would exceed
		// maxWeight is skipped.
		const maxWeight = 64
		type entry struct {
			e      *Expr
			sh     shadow
			w      int
			render string
		}
		var pool []entry
		push := func(e *Expr, sh shadow, w int) {
			checkInvariant(t, e)
			if got, want := evalIn(e, vars), sh(vars); got.Cmp(want) != 0 {
				t.Fatalf("step %d: %s evaluates to %s, big.Rat arithmetic gives %s", len(pool), e, got, want)
			}
			pool = append(pool, entry{e, sh, w, e.String()})
		}
		variable := func(name string) shadow {
			return func(vs map[string]*big.Rat) *big.Rat { return vs[name] }
		}
		push(Var("X"), variable("X"), 1)

		for len(data) >= 3 && len(pool) < 40 {
			op, p, q := data[0], data[1], data[2]
			data = data[3:]
			a, b := pool[int(p)%len(pool)], pool[int(q)%len(pool)]
			name := names[int(q)%len(names)]
			binary := func(f func(z, x, y *big.Rat) *big.Rat) shadow {
				return func(vs map[string]*big.Rat) *big.Rat { return f(new(big.Rat), a.sh(vs), b.sh(vs)) }
			}
			switch op % 15 {
			case 0:
				push(Int(int64(int8(p))), rat(int64(int8(p)), 1), 1)
			case 1:
				push(Var(name), variable(name), 1)
			case 2:
				n, d := int64(int8(p)), int64(q)%7+1
				push(Rat(big.NewRat(n, d)), rat(n, d), 1)
			case 3:
				// Either side of the small-coefficient limit.
				n := qvSmallLimit + int64(int8(p))%3
				if q%2 == 1 {
					n = -n
				}
				push(Int(n), rat(n, 1), 1)
			case 4:
				if a.w+b.w <= maxWeight {
					push(Add(a.e, b.e), binary((*big.Rat).Add), a.w+b.w)
				}
			case 5:
				if a.w+b.w <= maxWeight {
					push(Sub(a.e, b.e), binary((*big.Rat).Sub), a.w+b.w)
				}
			case 6, 9: // 9 squares a
				if op%15 == 9 {
					b = a
				}
				if a.w+b.w <= maxWeight && len(a.e.terms)*len(b.e.terms) <= maxWeight {
					push(Mul(a.e, b.e), binary((*big.Rat).Mul), a.w+b.w)
				}
			case 7:
				push(Neg(a.e), func(vs map[string]*big.Rat) *big.Rat { return new(big.Rat).Neg(a.sh(vs)) }, a.w)
			case 8:
				d := int64(int8(q))
				if d == 0 {
					d = 2
				}
				push(DivInt(a.e, d), func(vs map[string]*big.Rat) *big.Rat {
					return new(big.Rat).Mul(a.sh(vs), big.NewRat(1, d))
				}, a.w)
			case 10:
				push(Opaque("F", a.e), func(vs map[string]*big.Rat) *big.Rat { return opaqueF(a.sh(vs)) }, a.w)
			case 11:
				if a.w*b.w < maxWeight {
					push(a.e.Subst(name, b.e), func(vs map[string]*big.Rat) *big.Rat {
						return a.sh(with(vs, name, b.sh(vs)))
					}, a.w*b.w+1)
				}
			case 12:
				if 2*a.w <= maxWeight {
					fd := a.e.ForwardDiff(name)
					// The definition, spelled out: the coefficient shortcut
					// has to give the same polynomial and the same rendering.
					if def := Sub(a.e.Subst(name, Add(Var(name), Int(1))), a.e); !Equal(fd, def) || fd.String() != def.String() {
						t.Fatalf("ForwardDiff(%s, %s) = %s, substitution gives %s", a.e, name, fd, def)
					}
					push(fd, func(vs map[string]*big.Rat) *big.Rat {
						next := with(vs, name, new(big.Rat).Add(vs[name], big.NewRat(1, 1)))
						return new(big.Rat).Sub(a.sh(next), a.sh(vs))
					}, 2*a.w)
				}
			case 13:
				// Reassembled from its coefficients, a is itself.
				cs, ok := a.e.CoeffsIn(name)
				if !ok {
					continue
				}
				sum := Zero()
				for d, c := range cs {
					checkInvariant(t, c)
					if deg, _ := c.DegreeIn(name); deg != 0 {
						t.Fatalf("coefficient %s of %s^%d has %s as a factor", c, name, d, name)
					}
					sum = Add(sum, Mul(c, Pow(Var(name), d)))
				}
				if !Equal(sum, a.e) || sum.String() != a.render {
					t.Fatalf("CoeffsIn(%s) of %s reassembles to %s", name, a.e, sum)
				}
			case 14:
				if eq := Equal(a.e, b.e); eq != (a.render == b.render) {
					t.Fatalf("Equal(%s, %s) = %v", a.e, b.e, eq)
				}
			}
		}
		for i, en := range pool {
			if got := render(en.e); got != en.render {
				t.Fatalf("entry %d changed after it was made: %s, was %s", i, got, en.render)
			}
			if got, want := evalIn(en.e, vars), en.sh(vars); got.Cmp(want) != 0 {
				t.Fatalf("entry %d (%s) now evaluates to %s, want %s", i, en.e, got, want)
			}
		}
	})
}
