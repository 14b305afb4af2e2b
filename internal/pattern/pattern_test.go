package pattern

import (
	"testing"

	"polaris/internal/ir"
	"polaris/internal/parser"
)

func expr(t *testing.T, src string) ir.Expr {
	t.Helper()
	e, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	return e
}

func TestMatchBindsWildcards(t *testing.T) {
	// pattern: ?x + ?y*?x
	pat := ir.Add(W("x"), ir.Mul(W("y"), W("x")))
	e := expr(t, "K + N*K")
	b, ok := Match(pat, e)
	if !ok {
		t.Fatalf("no match")
	}
	if b["x"].String() != "K" || b["y"].String() != "N" {
		t.Errorf("bindings: %v", b)
	}
	// Repeated wildcard must see equal structure.
	if _, ok := Match(pat, expr(t, "K + N*J")); ok {
		t.Errorf("matched with inconsistent repeated wildcard")
	}
}

func TestMatchLiteralStructure(t *testing.T) {
	pat := expr(t, "A(I) + 1")
	if _, ok := Match(pat, expr(t, "A(I) + 1")); !ok {
		t.Errorf("identical expression did not match")
	}
	if _, ok := Match(pat, expr(t, "A(J) + 1")); ok {
		t.Errorf("different subscript matched")
	}
	if _, ok := Match(pat, expr(t, "B(I) + 1")); ok {
		t.Errorf("different array matched")
	}
}

func TestMatchPredicates(t *testing.T) {
	isConst := func(e ir.Expr) bool { _, ok := e.(*ir.ConstInt); return ok }
	pat := ir.Add(ir.Var("K"), &ir.Wildcard{ID: "c", Pred: isConst})
	if _, ok := Match(pat, expr(t, "K + 3")); !ok {
		t.Errorf("predicate match failed")
	}
	if _, ok := Match(pat, expr(t, "K + N")); ok {
		t.Errorf("predicate did not filter")
	}
}

func TestFindAndContains(t *testing.T) {
	pat := ir.Index("A", W("s"))
	e := expr(t, "X + B(A(2*I)) * 3")
	sub, b, ok := Find(pat, e)
	if !ok || sub.String() != "A(2*I)" || b["s"].String() != "2*I" {
		t.Errorf("Find = %v %v %v", sub, b, ok)
	}
	if !Contains(pat, e) {
		t.Errorf("Contains = false")
	}
	if Contains(ir.Index("Q", W("s")), e) {
		t.Errorf("Contains found absent pattern")
	}
}

func TestReplaceAll(t *testing.T) {
	// Replace K with (I-1) everywhere: pattern ?-free var match.
	pat := ir.Var("K")
	tmpl := ir.Sub(ir.Var("I"), ir.Int(1))
	e := expr(t, "K + A(K)*K")
	out, n := ReplaceAll(e, pat, tmpl)
	if n != 3 {
		t.Errorf("replacements = %d, want 3", n)
	}
	if out.String() != "I-1+A(I-1)*(I-1)" {
		t.Errorf("ReplaceAll = %s", out)
	}
	// Input untouched.
	if e.String() != "K+A(K)*K" {
		t.Errorf("input mutated: %s", e)
	}
}

func TestReplaceAllWithBindings(t *testing.T) {
	// x*2 -> x+x
	pat := ir.Mul(W("x"), ir.Int(2))
	tmpl := ir.Add(W("x"), W("x"))
	out, n := ReplaceAll(expr(t, "(I+J)*2 + K*2"), pat, tmpl)
	if n != 2 || out.String() != "I+J+(I+J)+(K+K)" {
		t.Errorf("ReplaceAll = %s (%d)", out, n)
	}
}

func TestInstantiateUnboundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("unbound wildcard did not panic")
		}
	}()
	Instantiate(W("nope"), Bindings{})
}

func assign(t *testing.T, lhs, rhs string) *ir.AssignStmt {
	t.Helper()
	return &ir.AssignStmt{LHS: expr(t, lhs), RHS: expr(t, rhs)}
}

func TestMatchReductionStmt(t *testing.T) {
	cases := []struct {
		lhs, rhs string
		ok       bool
		target   string
		addend   string
	}{
		{"S", "S + A(I)", true, "S", "A(I)"},
		{"S", "A(I) + S", true, "S", "A(I)"},
		{"S", "S - A(I)", true, "S", "-A(I)"},
		{"S", "A(I) - S", false, "", ""},
		{"A(IND(I))", "A(IND(I)) + X", true, "A", "X"},
		{"A(I)", "A(I+1) + X", false, "", ""},  // different element
		{"S", "S + S", false, "", ""},          // addend references target
		{"S", "S * 2", false, "", ""},          // not additive
		{"A(I)", "A(I) + A(J)", false, "", ""}, // addend references array
	}
	for _, c := range cases {
		st := assign(t, c.lhs, c.rhs)
		target, _, addend, ok := MatchReductionStmt(st)
		if ok != c.ok {
			t.Errorf("%s = %s: ok=%v, want %v", c.lhs, c.rhs, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if target != c.target || addend.String() != c.addend {
			t.Errorf("%s = %s: target=%s addend=%s", c.lhs, c.rhs, target, addend)
		}
	}
}

func TestMatchHistogramReduction(t *testing.T) {
	st := assign(t, "H(KEY(I))", "H(KEY(I)) + 1.0")
	target, subs, addend, ok := MatchReductionStmt(st)
	if !ok || target != "H" || len(subs) != 1 || addend.String() != "1.0" {
		t.Errorf("histogram reduction not recognized: %v %v %v %v", target, subs, addend, ok)
	}
}
