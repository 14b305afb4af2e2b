package ir

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestExprString(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{Int(42), "42"},
		{Real(1.5), "1.5"},
		{Real(2), "2.0"},
		{Logical(true), ".TRUE."},
		{Logical(false), ".FALSE."},
		{Var("X"), "X"},
		{Index("A", Var("I"), Int(2)), "A(I,2)"},
		{Add(Var("X"), Int(1)), "X+1"},
		{Mul(Add(Var("X"), Int(1)), Var("Y")), "(X+1)*Y"},
		{Sub(Var("X"), Sub(Var("Y"), Var("Z"))), "X-(Y-Z)"},
		{Div(Var("X"), Mul(Var("Y"), Var("Z"))), "X/(Y*Z)"},
		{Bin(OpPow, Var("N"), Int(2)), "N**2"},
		{Neg(Var("X")), "-X"},
		{Neg(Add(Var("X"), Int(1))), "-(X+1)"},
		{Add(Var("X"), Neg(Var("Y"))), "X+(-Y)"},
		{Bin(OpLt, Var("I"), Var("N")), "I.LT.N"},
		{Bin(OpAnd, Bin(OpLt, Var("I"), Var("N")), Logical(true)), "I.LT.N.AND..TRUE."},
		{&Unary{Op: OpNot, X: Var("FLAG")}, ".NOT.FLAG"},
		{&Call{Name: "MOD", Args: []Expr{Var("I"), Int(2)}}, "MOD(I,2)"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// TestExprRenderLinear holds rendering to what the text is long
// ([bounded]): the 4000-term sum 1+1+…+1, the parser's left-nested tree,
// renders in at most 4× its output bytes. Concatenating each operand's
// own string allocated about 2000× (16 MB for 8 KB of text).
func TestExprRenderLinear(t *testing.T) {
	const terms = 4000
	var sum Expr = Int(1)
	for i := 1; i < terms; i++ {
		sum = Add(sum, Int(1))
	}
	want := strings.Repeat("1+", terms-1) + "1"
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.TotalAlloc
	got := sum.String()
	runtime.ReadMemStats(&m)
	spent := m.TotalAlloc - before
	if got != want {
		t.Fatalf("the %d-term sum renders as %.40q..., want %.40q...", terms, got, want)
	}
	t.Logf("%d bytes of text, %d bytes allocated", len(got), spent)
	if limit := uint64(4 * len(got)); spent > limit {
		t.Errorf("rendering %d bytes of text allocated %d, over 4× (%d)", len(got), spent, limit)
	}
}

func TestEqual(t *testing.T) {
	a := Add(Mul(Var("I"), Int(2)), Index("A", Var("J")))
	b := Add(Mul(Var("I"), Int(2)), Index("A", Var("J")))
	if !Equal(a, b) {
		t.Errorf("structurally equal expressions reported unequal")
	}
	c := Add(Mul(Var("I"), Int(3)), Index("A", Var("J")))
	if Equal(a, c) {
		t.Errorf("different expressions reported equal")
	}
	if Equal(Int(1), Real(1)) {
		t.Errorf("ConstInt equal to ConstReal")
	}
}

func TestCloneIsDeep(t *testing.T) {
	orig := Add(Var("X"), Index("A", Var("I")))
	cp := orig.Clone()
	if !Equal(orig, cp) {
		t.Fatalf("clone differs from original")
	}
	cp.(*Binary).L.(*VarRef).Name = "Y"
	if orig.L.(*VarRef).Name != "X" {
		t.Errorf("mutating clone changed original")
	}
}

func TestSubstVar(t *testing.T) {
	e := Add(Var("K"), Mul(Var("K"), Var("N")))
	got := SubstVar(e, "K", Add(Var("I"), Int(1)))
	want := "I+1+(I+1)*N"
	if got.String() != want {
		t.Errorf("SubstVar = %q, want %q", got, want)
	}
	// Original untouched.
	if e.String() != "K+K*N" {
		t.Errorf("SubstVar mutated input: %q", e)
	}
	// Array base names are not substituted.
	e2 := Index("K", Var("K"))
	got2 := SubstVar(e2, "K", Int(5))
	if got2.String() != "K(5)" {
		t.Errorf("SubstVar on array ref = %q, want K(5)", got2)
	}
}

func TestVarsInArraysIn(t *testing.T) {
	e := Add(Index("A", Add(Var("I"), Var("N"))), Mul(Var("X"), Index("B", Var("J"))))
	vars := VarsIn(e)
	for _, v := range []string{"I", "N", "X", "J"} {
		if !vars[v] {
			t.Errorf("VarsIn missing %s", v)
		}
	}
	if vars["A"] || vars["B"] {
		t.Errorf("VarsIn included array names: %v", vars)
	}
	arrs := ArraysIn(e)
	if !arrs["A"] || !arrs["B"] || len(arrs) != 2 {
		t.Errorf("ArraysIn = %v, want {A,B}", arrs)
	}
}

func TestReferences(t *testing.T) {
	e := Add(Index("A", Var("I")), Int(3))
	if !References(e, "A") || !References(e, "I") {
		t.Errorf("References failed to find A or I")
	}
	if References(e, "B") {
		t.Errorf("References found absent name")
	}
}

func TestMapExprDoesNotMutate(t *testing.T) {
	e := Add(Var("I"), Mul(Var("I"), Var("J")))
	out := MapExpr(e, func(n Expr) Expr {
		if v, ok := n.(*VarRef); ok && v.Name == "I" {
			return Int(7)
		}
		return n
	})
	if out.String() != "7+7*J" {
		t.Errorf("MapExpr = %q, want 7+7*J", out)
	}
	if e.String() != "I+I*J" {
		t.Errorf("MapExpr mutated input: %q", e)
	}
}

func TestCountNodes(t *testing.T) {
	if n := CountNodes(Add(Var("X"), Mul(Var("Y"), Int(2)))); n != 5 {
		t.Errorf("CountNodes = %d, want 5", n)
	}
}

// Property: Clone always produces an Equal expression, and String of
// equal expressions is identical.
func TestCloneEqualProperty(t *testing.T) {
	f := func(seed int64) bool {
		e := randomExpr(&seed, 4)
		c := e.Clone()
		return Equal(e, c) && e.String() == c.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// randomExpr builds a deterministic pseudo-random expression from a
// seed, used by property tests here and in other packages' tests.
func randomExpr(seed *int64, depth int) Expr {
	next := func(n int64) int64 {
		*seed = (*seed*6364136223846793005 + 1442695040888963407)
		v := *seed >> 33
		if v < 0 {
			v = -v
		}
		return v % n
	}
	if depth == 0 || next(4) == 0 {
		switch next(3) {
		case 0:
			return Int(next(100) - 50)
		case 1:
			return Var(string(rune('I' + next(5))))
		default:
			return Index("A", Int(next(10)))
		}
	}
	switch next(4) {
	case 0:
		return Add(randomExpr(seed, depth-1), randomExpr(seed, depth-1))
	case 1:
		return Mul(randomExpr(seed, depth-1), randomExpr(seed, depth-1))
	case 2:
		return Neg(randomExpr(seed, depth-1))
	default:
		return Sub(randomExpr(seed, depth-1), randomExpr(seed, depth-1))
	}
}

func TestRenderPrecedenceRoundTrip(t *testing.T) {
	// (X+1)*(Y-2) must keep both parenthesized groups.
	e := Mul(Add(Var("X"), Int(1)), Sub(Var("Y"), Int(2)))
	s := e.String()
	if !strings.Contains(s, "(X+1)") || !strings.Contains(s, "(Y-2)") {
		t.Errorf("precedence lost: %q", s)
	}
}
