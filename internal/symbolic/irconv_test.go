package symbolic

import (
	"math/big"
	"testing"
	"testing/quick"

	"polaris/internal/ir"
	"polaris/internal/parser"
)

func mustIR(t *testing.T, src string) ir.Expr {
	t.Helper()
	e, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	return e
}

func TestFromIRBasics(t *testing.T) {
	cases := []struct {
		src  string
		want *Expr
	}{
		{"1+2*3", Int(7)},
		{"I*(N**2+N)", Mul(Var("I"), Add(Pow(Var("N"), 2), Var("N")))},
		{"-(X-Y)", Sub(Var("Y"), Var("X"))},
		{"(K + 1 + (I*(N**2+N)+J**2-J)/2)",
			Add(Add(Var("K"), Int(1)),
				DivInt(Add(Mul(Var("I"), Add(Pow(Var("N"), 2), Var("N"))), Sub(Pow(Var("J"), 2), Var("J"))), 2))},
		{"IND(K)", Opaque("IND", Var("K"))},
	}
	for _, c := range cases {
		got := FromIR(mustIR(t, c.src), NewLeaves(), nil)
		if !got.OK {
			t.Errorf("FromIR(%q) failed", c.src)
			continue
		}
		if !Equal(got.E, c.want) {
			t.Errorf("FromIR(%q) = %s, want %s", c.src, got.E, c.want)
		}
	}
}

func TestFromIRFlagsIntDiv(t *testing.T) {
	got := FromIR(mustIR(t, "(N+1)/2"), NewLeaves(), nil)
	if !got.OK || !got.IntDivApprox {
		t.Errorf("IntDivApprox not set: %+v", got)
	}
	got2 := FromIR(mustIR(t, "N+1"), NewLeaves(), nil)
	if !got2.OK || got2.IntDivApprox {
		t.Errorf("IntDivApprox wrongly set")
	}
	// Division by non-constant: opaque, not approximated.
	got3 := FromIR(mustIR(t, "N/M"), NewLeaves(), nil)
	if !got3.OK || got3.IntDivApprox || !got3.E.HasOpaque() {
		t.Errorf("N/M conversion wrong: %+v", got3)
	}
}

func TestFromIRResolver(t *testing.T) {
	resolve := func(name string) *Expr {
		if name == "NP" {
			return Int(100)
		}
		return nil
	}
	got := FromIR(mustIR(t, "NP*I+J"), NewLeaves(), resolve)
	want := Add(Mul(Int(100), Var("I")), Var("J"))
	if !got.OK || !Equal(got.E, want) {
		t.Errorf("resolver conversion = %s", got.E)
	}
}

func TestFromIRRejectsLogical(t *testing.T) {
	got := FromIR(mustIR(t, "I .LT. N"), NewLeaves(), nil)
	if got.OK {
		t.Errorf("relational expression converted: %s", got.E)
	}
}

func TestToIRRoundTripValue(t *testing.T) {
	// Symbolic -> IR -> symbolic is the identity polynomial.
	exprs := []*Expr{
		Int(0),
		Int(-7),
		Add(Mul(Var("I"), Add(Pow(Var("N"), 2), Var("N"))), Int(1)),
		DivInt(Add(Pow(Var("J"), 2), Var("J")), 2),
		Sub(Opaque("IND", Var("K")), Var("K")),
		Add(DivInt(Mul(Var("I"), Add(Pow(Var("N"), 2), Var("N"))), 2), DivInt(Sub(Pow(Var("J"), 2), Var("J")), 2)),
	}
	for _, e := range exprs {
		irE := ToIR(e)
		back := FromIR(irE, NewLeaves(), nil)
		if !back.OK || !Equal(back.E, e) {
			t.Errorf("round trip of %s via %s gave %s", e, irE, back.E)
		}
	}
}

func TestToIRDivisionShape(t *testing.T) {
	// (j^2 - j)/2 + k + 1 should print with a single /2.
	e := Add(Add(DivInt(Sub(Pow(Var("J"), 2), Var("J")), 2), Var("K")), Int(1))
	s := ToIR(e).String()
	if s != "(2+2*K-J+J**2)/2" {
		t.Logf("shape: %s", s)
	}
	back := FromIR(ToIR(e), NewLeaves(), nil)
	if !Equal(back.E, e) {
		t.Errorf("division shape round trip failed: %s", s)
	}
}

// Property: FromIR(e) evaluates to the same value as direct arithmetic
// evaluation of the IR tree (integer-only expressions, no division).
func TestFromIREvalProperty(t *testing.T) {
	f := func(seed int64, x, y int8) bool {
		e := randomIntExpr(&seed, 3)
		conv := FromIR(e, NewLeaves(), nil)
		if !conv.OK {
			return true
		}
		vals := map[string]int64{"X": int64(x), "Y": int64(y)}
		want, ok := evalIR(e, vals)
		if !ok {
			return true
		}
		got, ok := conv.E.EvalInt(vals)
		if !ok {
			return true
		}
		return got.Cmp(big.NewRat(want, 1)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func randomIntExpr(seed *int64, depth int) ir.Expr {
	next := func(n int64) int64 {
		*seed = *seed*6364136223846793005 + 1442695040888963407
		v := *seed >> 33
		if v < 0 {
			v = -v
		}
		return v % n
	}
	if depth == 0 || next(3) == 0 {
		switch next(3) {
		case 0:
			return ir.Int(next(20) - 10)
		case 1:
			return ir.Var("X")
		default:
			return ir.Var("Y")
		}
	}
	a := randomIntExpr(seed, depth-1)
	b := randomIntExpr(seed, depth-1)
	switch next(4) {
	case 0:
		return ir.Add(a, b)
	case 1:
		return ir.Sub(a, b)
	case 2:
		return ir.Mul(a, b)
	default:
		return ir.Neg(a)
	}
}

func evalIR(e ir.Expr, vals map[string]int64) (int64, bool) {
	switch x := e.(type) {
	case *ir.ConstInt:
		return x.Val, true
	case *ir.VarRef:
		v, ok := vals[x.Name]
		return v, ok
	case *ir.Unary:
		v, ok := evalIR(x.X, vals)
		return -v, ok
	case *ir.Binary:
		l, ok1 := evalIR(x.L, vals)
		r, ok2 := evalIR(x.R, vals)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch x.Op {
		case ir.OpAdd:
			return l + r, true
		case ir.OpSub:
			return l - r, true
		case ir.OpMul:
			return l * r, true
		}
	}
	return 0, false
}
