package symbolic_test

import (
	"math/big"
	"testing"

	"polaris/internal/core"
	"polaris/internal/fuzzgen"
	"polaris/internal/ir"
	"polaris/internal/parser"
	"polaris/internal/rng"
	"polaris/internal/suite"
	. "polaris/internal/symbolic"
)

// TestForwardDiffLinearMatchesSubstitution holds ForwardDiff to its
// definition, e(v+1) - e(v) by substitution, as a polynomial and as a
// rendering (the prover's memo key): on every array subscript of the 16
// suite programs and mega10k, as parsed and as compiled, converted with
// and without the unit's constants, for each variable it mentions and
// one it does not; and on hand cases either side of the line the
// coefficient shortcut draws.
func TestForwardDiffLinearMatchesSubstitution(t *testing.T) {
	linear, fallback := 0, 0
	check := func(where string, e *Expr, v string) {
		t.Helper()
		// Each side on its own copy of e, so neither can be answered from
		// a cache the other filled.
		got := Mul(e, Int(1)).ForwardDiff(v)
		fresh := Mul(e, Int(1))
		want := Sub(fresh.Subst(v, Add(Var(v), Int(1))), fresh)
		if !Equal(got, want) || got.String() != want.String() {
			t.Errorf("%s: ForwardDiff(%s, %s) = %s, substitution gives %s", where, e, v, got, want)
		}
		if deg, inOpaque := e.DegreeIn(v); deg <= 1 && !inOpaque {
			linear++
		} else {
			fallback++
		}
	}

	i, j, n := Var("I"), Var("J"), Var("N")
	hand := []struct {
		name string
		e    *Expr
		v    string
	}{
		{"degree one", Add(Mul(Int(3), i), n), "I"},
		{"degree two", Add(Mul(i, i), i), "I"},
		{"inside an opaque atom", Opaque("IND", i), "I"},
		{"beside an opaque atom that holds it", Add(Mul(Int(2), i), Opaque("IND", Add(i, Int(1)))), "I"},
		{"times an opaque atom that does not", Mul(i, Opaque("IND", j)), "I"},
		{"absent", Add(Mul(Int(2), j), n), "I"},
		{"zero", Zero(), "I"},
		{"a product of two variables", Add(Mul(i, j), j), "I"},
		{"the same product, the other variable", Add(Mul(i, j), j), "J"},
		{"rational coefficients", Add(MulRat(i, big.NewRat(3, 4)), MulRat(Mul(i, n), big.NewRat(-5, 6))), "I"},
		{"triangular", DivInt(Sub(Mul(i, i), i), 2), "I"},
		// I*J - J: in e(I+1) the coefficient of J cancels to nothing
		// before e is subtracted; the coefficient of I is J either way.
		{"a coefficient that cancels", Sub(Mul(i, j), j), "I"},
		{"constant coefficient beside a symbolic one", Add(Mul(Int(7), i), Mul(i, Mul(n, n))), "I"},
		{"dropping it reorders the terms", Add(Mul(Var("A"), Var("Z")), Add(Mul(i, Var("Z")), Mul(Var("K"), Var("B")))), "I"},
	}
	for _, c := range hand {
		check(c.name, c.e, c.v)
	}
	if linear == 0 || fallback == 0 {
		t.Fatalf("hand cases: %d on the coefficient path, %d on the substitution path", linear, fallback)
	}

	type source struct{ name, src string }
	var sources []source
	for _, p := range suite.All() {
		sources = append(sources, source{p.Name, p.Source})
	}
	for _, spec := range fuzzgen.MegaCorpus() {
		if spec.Name == "mega10k" {
			sources = append(sources, source{spec.Name, spec.Generate().Source})
		}
	}
	if len(sources) != 17 {
		t.Fatalf("%d sources, want the 16 suite programs and mega10k", len(sources))
	}
	linear, fallback = 0, 0
	for _, s := range sources {
		res, err := core.Compile(parser.MustParse(s.src), core.PolarisOptions())
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for _, prog := range []*ir.Program{parser.MustParse(s.src), res.Program} {
			for _, u := range prog.Units {
				ra := rng.New(u, NewLeaves())
				resolvers := []Resolver{nil, ra.Resolver()}
				ir.WalkStmtExprs(u.Body, func(x ir.Expr) bool {
					ref, ok := x.(*ir.ArrayRef)
					if !ok {
						return true
					}
					for _, sub := range ref.Subs {
						for _, r := range resolvers {
							conv := FromIR(sub, ra.Leaves(), r)
							if !conv.OK {
								continue
							}
							check(s.name+"/"+u.Name, conv.E, "NOT_THERE")
							for v := range conv.E.Vars() {
								check(s.name+"/"+u.Name, conv.E, v)
							}
						}
					}
					return true
				})
				if t.Failed() {
					return
				}
			}
		}
	}
	// The corpus has to reach both paths: closed forms of induction
	// variables are of degree two, index arrays hold the loop index.
	if linear < 10000 || fallback == 0 {
		t.Errorf("corpus: %d differences on the coefficient path, %d on the substitution path", linear, fallback)
	}
}
