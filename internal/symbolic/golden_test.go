package symbolic

import (
	"math/big"
	"testing"
)

// goldenExprs pins String() — the prover's memo key and every cache's
// fingerprint — byte for byte. The want column was generated at the
// commit before terms moved from a map to a sorted slice; a
// representation change must reproduce it exactly.
var goldenExprs = []struct {
	name  string
	build func() *Expr
	want  string
}{
	{"zero", Zero, "0"},
	{"int", func() *Expr { return Int(7) }, "7"},
	{"negative int", func() *Expr { return Int(-7) }, "-7"},
	{"fraction", func() *Expr { return Rat(big.NewRat(3, 4)) }, "3/4"},
	{"negative fraction", func() *Expr { return Rat(big.NewRat(-5, 6)) }, "-5/6"},
	{"unnormalized fraction", func() *Expr { return DivInt(Int(6), -4) }, "-3/2"},
	{"var", func() *Expr { return Var("I") }, "I^1"},
	{"negated var", func() *Expr { return Neg(Var("I")) }, "-I^1"},
	{"leading negative constant", func() *Expr { return Sub(Var("B"), Add(Var("A"), Int(3))) }, "-3-A^1+B^1"},
	{"leading negative monomial", func() *Expr { return Sub(Var("B"), Mul(Int(2), Var("A"))) }, "-2*A^1+B^1"},
	{"linear", func() *Expr {
		return Sub(Add(Mul(Int(2), Var("I")), Mul(Int(3), Var("J"))), Int(1))
	}, "-1+2*I^1+3*J^1"},
	{"triangular", func() *Expr {
		return Add(DivInt(Mul(Var("K"), Sub(Var("K"), Int(1))), 2), Var("J"))
	}, "J^1-1/2*K^1+1/2*K^2"},
	{"fraction on monomial and constant", func() *Expr {
		return Add(MulRat(Var("X"), big.NewRat(-1, 2)), Rat(big.NewRat(1, 3)))
	}, "1/3-1/2*X^1"},
	{"just below 2^31", func() *Expr { return Mul(Int(1<<31-1), Var("X")) }, "2147483647*X^1"},
	{"at 2^31", func() *Expr { return Mul(Int(1<<31), Var("X")) }, "2147483648*X^1"},
	{"above 2^31", func() *Expr { return Add(Int(1<<31+1), Var("X")) }, "2147483649+X^1"},
	{"at -2^31", func() *Expr { return Sub(Var("X"), Int(1<<31)) }, "-2147483648+X^1"},
	{"just above -2^31", func() *Expr { return Int(-(1<<31 - 1)) }, "-2147483647"},
	{"product promotes", func() *Expr {
		return Mul(Mul(Int(1<<31-1), Int(1<<31-1)), Var("X"))
	}, "4611686014132420609*X^1"},
	{"sum demotes", func() *Expr { return Add(Int(1<<31), Int(-1)) }, "2147483647"},
	{"promoted denominator", func() *Expr { return DivInt(Var("X"), 1<<31) }, "1/2147483648*X^1"},
	{"promoted minus one", func() *Expr {
		return Sub(Mul(Int(1<<31), Var("X")), Mul(Int(1<<31+1), Var("X")))
	}, "-X^1"},
	{"real constant", func() *Expr { return Rat(new(big.Rat).SetFloat64(0.1)) }, "3602879701896397/36028797018963968"},
	{"opaque", func() *Expr { return Opaque("IND", Add(Var("K"), Int(1))) }, "IND(1+K^1)^1"},
	{"opaque without args", func() *Expr { return Add(Opaque("MP"), Int(1)) }, "1+MP()^1"},
	{"nested opaque", func() *Expr {
		return Sub(Opaque("A", Opaque("B", Add(Var("I"), Int(1))), Mul(Int(2), Var("J"))), Var("I"))
	}, "A(B(1+I^1)^1,2*J^1)^1-I^1"},
	{"call atom", func() *Expr {
		return Add(OpaqueAtom(Atom{Name: "IDIV", Args: []*Expr{Var("X"), Int(2)}, Call: true}), Var("X"))
	}, "@IDIV(X^1,2)^1+X^1"},
	{"call and array of one name", func() *Expr {
		k := []*Expr{Var("K")}
		return Sub(OpaqueAtom(Atom{Name: "F", Args: k, Call: true}), OpaqueAtom(Atom{Name: "F", Args: k}))
	}, "@F(K^1)^1-F(K^1)^1"},
	{"cancels to zero", func() *Expr { return Sub(Add(Var("I"), Var("J")), Add(Var("J"), Var("I"))) }, "0"},
	{"one term cancels", func() *Expr {
		return Add(Add(Var("I"), Var("J")), Sub(Var("K"), Var("J")))
	}, "I^1+K^1"},
	{"constant cancels", func() *Expr { return Sub(Add(Var("I"), Int(4)), Int(4)) }, "I^1"},
	{"cube", func() *Expr { return Pow(Add(Var("I"), Int(1)), 3) }, "1+3*I^1+3*I^2+I^3"},
	{"difference of squares", func() *Expr {
		return Mul(Add(Var("I"), Var("J")), Sub(Var("I"), Var("J")))
	}, "I^2-J^2"},
	{"mixed monomial", func() *Expr {
		return Mul(Mul(Pow(Var("I"), 2), Var("J")), Pow(Opaque("IND", Var("K")), 3))
	}, "I^2*IND(K^1)^3*J^1"},
	{"key order", func() *Expr {
		// '(' < 'B' < '^': the monomial key, not the atom name, orders terms.
		return Add(Add(Var("A"), Var("AB")), Add(Opaque("A", Int(1)), Mul(Var("A"), Var("B"))))
	}, "A(1)^1+AB^1+A^1+A^1*B^1"},
	{"power order", func() *Expr {
		return Add(Add(Pow(Var("I"), 10), Pow(Var("I"), 2)), Mul(Var("I"), Var("J")))
	}, "I^1*J^1+I^10+I^2"},
	{"subst", func() *Expr {
		e := Add(Pow(Var("I"), 2), Mul(Var("I"), Var("N")))
		return e.Subst("I", Add(Var("J"), Int(1)))
	}, "1+2*J^1+J^1*N^1+J^2+N^1"},
	{"subst inside opaque", func() *Expr {
		e := Mul(Var("I"), Opaque("IND", Add(Var("I"), Var("M"))))
		return e.Subst("I", Sub(Var("N"), Int(1)))
	}, "-IND(-1+M^1+N^1)^1+IND(-1+M^1+N^1)^1*N^1"},
	{"subst atom", func() *Expr {
		e := Add(Mul(Opaque("MP"), Var("I")), Pow(Opaque("MP"), 2))
		return e.SubstAtom("MP()", Add(Var("M"), Var("P")))
	}, "I^1*M^1+I^1*P^1+2*M^1*P^1+M^2+P^2"},
	{"forward difference", func() *Expr { return Pow(Var("I"), 3).ForwardDiff("I") }, "1+3*I^1+3*I^2"},
	{"coefficient of K", func() *Expr {
		e := Add(Add(Mul(Int(3), Pow(Var("K"), 2)), Mul(Mul(Var("N"), Var("K")), Var("M"))), Mul(Var("K"), Int(5)))
		c, _ := e.CoeffsIn("K")
		return c[1]
	}, "5+M^1*N^1"},
	{"closed sum", func() *Expr {
		s, _ := SumClosed(Pow(Var("K"), 2), "K", Int(1), Var("N"))
		return s
	}, "1/6*N^1+1/2*N^2+1/3*N^3"},
}

func TestExprStringGolden(t *testing.T) {
	for _, c := range goldenExprs {
		e := c.build()
		if got := e.String(); got != c.want {
			t.Errorf("%s: String() = %q, want %q", c.name, got, c.want)
		}
		// The cached rendering and a rebuilt one agree.
		if again := c.build().String(); again != e.String() {
			t.Errorf("%s: rebuilt String() = %q, first %q", c.name, again, e.String())
		}
	}
}
