package reduction

import (
	"testing"

	"polaris/internal/ir"
	"polaris/internal/parser"
)

func recognize(t *testing.T, src string) *Result {
	t.Helper()
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	u := prog.Main()
	loop := ir.OuterLoops(u.Body)[0]
	return Recognize(u, loop)
}

func find(r *Result, name string) *Candidate {
	for i := range r.Candidates {
		if r.Candidates[i].Target == name {
			return &r.Candidates[i]
		}
	}
	return nil
}

func TestScalarSumReduction(t *testing.T) {
	r := recognize(t, `
      SUBROUTINE S(N, A, SUM)
      INTEGER N, I
      REAL A(N), SUM
      DO I = 1, N
        SUM = SUM + A(I)
      END DO
      END
`)
	c := find(r, "SUM")
	if c == nil || c.Op != "+" || c.Histogram || len(c.Stmts) != 1 {
		t.Errorf("sum reduction wrong: %+v", r.Candidates)
	}
}

func TestSubtractionIsAdditive(t *testing.T) {
	r := recognize(t, `
      SUBROUTINE S(N, A, SUM)
      INTEGER N, I
      REAL A(N), SUM
      DO I = 1, N
        SUM = SUM - A(I)
      END DO
      END
`)
	if c := find(r, "SUM"); c == nil || c.Op != "+" {
		t.Errorf("subtraction not normalized to additive reduction")
	}
}

func TestHistogramReduction(t *testing.T) {
	r := recognize(t, `
      SUBROUTINE S(N, KEY, H)
      INTEGER N, I, KEY(N)
      REAL H(100)
      DO I = 1, N
        H(KEY(I)) = H(KEY(I)) + 1.0
      END DO
      END
`)
	c := find(r, "H")
	if c == nil || !c.Histogram {
		t.Errorf("histogram reduction not recognized: %+v", r.Candidates)
	}
}

func TestSingleAddressArrayReduction(t *testing.T) {
	r := recognize(t, `
      SUBROUTINE S(N, A, ACC)
      INTEGER N, I
      REAL A(N), ACC(4)
      DO I = 1, N
        ACC(2) = ACC(2) + A(I)
      END DO
      END
`)
	c := find(r, "ACC")
	if c == nil || c.Histogram {
		t.Errorf("single-address array reduction wrong: %+v", r.Candidates)
	}
}

func TestMultipleStatementsSameTarget(t *testing.T) {
	r := recognize(t, `
      SUBROUTINE S(N, A, B, SUM)
      INTEGER N, I
      REAL A(N), B(N), SUM
      DO I = 1, N
        SUM = SUM + A(I)
        SUM = SUM + B(I)
      END DO
      END
`)
	c := find(r, "SUM")
	if c == nil || len(c.Stmts) != 2 {
		t.Errorf("two-statement group wrong: %+v", r.Candidates)
	}
}

func TestOutsideReferenceInvalidates(t *testing.T) {
	r := recognize(t, `
      SUBROUTINE S(N, A, SUM)
      INTEGER N, I
      REAL A(N), SUM
      DO I = 1, N
        SUM = SUM + A(I)
        A(I) = SUM
      END DO
      END
`)
	if find(r, "SUM") != nil {
		t.Errorf("reduction with outside use wrongly recognized")
	}
}

func TestMixedOpsInvalidate(t *testing.T) {
	r := recognize(t, `
      SUBROUTINE S(N, A, SUM)
      INTEGER N, I
      REAL A(N), SUM
      DO I = 1, N
        SUM = SUM + A(I)
        SUM = SUM * 2.0
      END DO
      END
`)
	if find(r, "SUM") != nil {
		t.Errorf("mixed-operation group wrongly recognized")
	}
}

func TestMaxReduction(t *testing.T) {
	r := recognize(t, `
      SUBROUTINE S(N, A, BIG)
      INTEGER N, I
      REAL A(N), BIG
      DO I = 1, N
        BIG = MAX(BIG, A(I))
      END DO
      END
`)
	if c := find(r, "BIG"); c == nil || c.Op != "MAX" {
		t.Errorf("MAX reduction not recognized: %+v", r.Candidates)
	}
}

func TestProductReduction(t *testing.T) {
	r := recognize(t, `
      SUBROUTINE S(N, A, PROD)
      INTEGER N, I
      REAL A(N), PROD
      DO I = 1, N
        PROD = PROD * A(I)
      END DO
      END
`)
	if c := find(r, "PROD"); c == nil || c.Op != "*" {
		t.Errorf("product reduction not recognized: %+v", r.Candidates)
	}
}

func TestAddendReferencingTargetRejected(t *testing.T) {
	r := recognize(t, `
      SUBROUTINE S(N, SUM)
      INTEGER N, I
      REAL SUM
      DO I = 1, N
        SUM = SUM + SUM
      END DO
      END
`)
	if find(r, "SUM") != nil {
		t.Errorf("self-referencing addend wrongly recognized")
	}
}

func TestSkipSetAndAnnotations(t *testing.T) {
	r := recognize(t, `
      SUBROUTINE S(N, A, SUM)
      INTEGER N, I
      REAL A(N), SUM
      DO I = 1, N
        SUM = SUM + A(I)
      END DO
      END
`)
	skip := r.SkipSet()
	if len(skip) != 1 {
		t.Errorf("SkipSet = %d entries", len(skip))
	}
	anns := r.Reductions()
	if len(anns) != 1 || anns[0].Target != "SUM" || anns[0].Op != "+" {
		t.Errorf("annotations wrong: %+v", anns)
	}
}

func TestConditionalReductionStillRecognized(t *testing.T) {
	// Polaris flags conditional reductions too: the update may sit
	// under an IF (histogram sums in MDG do this).
	r := recognize(t, `
      SUBROUTINE S(N, A, SUM)
      INTEGER N, I
      REAL A(N), SUM
      DO I = 1, N
        IF (A(I) .GT. 0.0) THEN
          SUM = SUM + A(I)
        END IF
      END DO
      END
`)
	if find(r, "SUM") == nil {
		t.Errorf("conditional reduction not recognized")
	}
}

func assign(t *testing.T, lhs, rhs string) *ir.AssignStmt {
	t.Helper()
	l, err := parser.ParseExpr(lhs)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", lhs, err)
	}
	r, err := parser.ParseExpr(rhs)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", rhs, err)
	}
	return &ir.AssignStmt{LHS: l, RHS: r}
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

func TestMatchReductionMulAndMax(t *testing.T) {
	// Multiplication and MAX idioms go through sideMatch; the additive
	// matcher must reject them (it only does +/-).
	if _, _, _, ok := MatchReductionStmt(assign(t, "S", "S * 2.0")); ok {
		t.Errorf("additive matcher accepted multiplication")
	}
	if _, _, _, ok := MatchReductionStmt(assign(t, "S", "MAX(S, 1.0)")); ok {
		t.Errorf("additive matcher accepted MAX")
	}
}
