package induction

import (
	"strings"
	"testing"

	"polaris/internal/ir"
	"polaris/internal/parser"
	"polaris/internal/rng"
	"polaris/internal/symbolic"
)

func run(t *testing.T, src string) (*ir.ProgramUnit, *Result) {
	t.Helper()
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	u := prog.Main()
	res := RunWith(u, rng.New(u, symbolic.NewLeaves()), Options{})
	if err := prog.Check(); err != nil {
		t.Fatalf("IR inconsistent after substitution: %v\n%s", err, u.Fortran())
	}
	return u, res
}

func solvedNames(res *Result) map[string]bool {
	out := map[string]bool{}
	for _, s := range res.Solved {
		out[s.Name] = true
	}
	return out
}

func TestSimpleInduction(t *testing.T) {
	u, res := run(t, `
      PROGRAM P
      INTEGER K, I, N
      REAL A(1000)
      N = 100
      K = 0
      DO I = 1, N
        K = K + 1
        A(K) = 1.0
      END DO
      END
`)
	if !solvedNames(res)["K"] {
		t.Fatalf("K not solved: %+v", res)
	}
	loop := ir.Loops(u.Body)[0]
	// The increment statement is gone and A's subscript is I-based.
	if len(loop.Body.Stmts) != 1 {
		t.Fatalf("loop body = %d stmts, want 1:\n%s", len(loop.Body.Stmts), u.Fortran())
	}
	lhs := loop.Body.Stmts[0].(*ir.AssignStmt).LHS.(*ir.ArrayRef)
	if got := lhs.Subs[0].String(); got != "I" {
		t.Errorf("subscript = %q, want I", got)
	}
}

func TestLastValueAssigned(t *testing.T) {
	u, res := run(t, `
      PROGRAM P
      INTEGER K, I, N, M
      REAL A(1000)
      N = 100
      K = 0
      DO I = 1, N
        K = K + 2
        A(K) = 1.0
      END DO
      M = K
      END
`)
	if !solvedNames(res)["K"] {
		t.Fatalf("K not solved")
	}
	src := u.Fortran()
	// K = 200 (or equivalent) must be assigned after the loop because K
	// is used afterwards.
	found := false
	for i, s := range u.Body.Stmts {
		if a, ok := s.(*ir.AssignStmt); ok {
			if v, ok := a.LHS.(*ir.VarRef); ok && v.Name == "K" && i >= 2 {
				found = true
				if a.RHS.String() != "200" {
					t.Errorf("last value RHS = %s, want 200", a.RHS)
				}
			}
		}
	}
	if !found {
		t.Errorf("no last-value assignment:\n%s", src)
	}
}

// The paper's Figure 1: cascaded induction variables in a triangular
// nest. K1 increments in the inner loop; K2 accumulates K1.
func TestFigure1CascadedTriangular(t *testing.T) {
	u, res := run(t, `
      SUBROUTINE F1(N, A, B)
      INTEGER N, I, J, K1, K2
      REAL A(N*N), B(N*N)
      K1 = 0
      K2 = 0
      DO I = 1, N
        DO J = 1, I
          K1 = K1 + 1
          A(K1) = 0.5
        END DO
        K2 = K2 + K1
        B(K2) = 1.5
      END DO
      END
`)
	names := solvedNames(res)
	if !names["K1"] || !names["K2"] {
		t.Fatalf("cascaded solve incomplete: %+v\n%s", res.Solved, u.Fortran())
	}
	loops := ir.Loops(u.Body)
	inner := loops[1]
	// A's subscript: (I^2-I)/2 + J (in some equivalent form).
	aAssign := inner.Body.Stmts[0].(*ir.AssignStmt)
	sub := aAssign.LHS.(*ir.ArrayRef).Subs[0]
	checkEquivalent(t, u, sub, "(I*I-I)/2 + J", map[string]int64{"I": 5, "J": 3, "N": 9})
	// No induction statements remain inside the nest.
	ir.WalkStmts(loops[0].Body, func(s ir.Stmt) bool {
		if a, ok := s.(*ir.AssignStmt); ok {
			if v, ok := a.LHS.(*ir.VarRef); ok && (v.Name == "K1" || v.Name == "K2") {
				t.Errorf("induction statement survived: %s = %s", a.LHS, a.RHS)
			}
		}
		return true
	})
}

// The paper's Figure 2 (TRFD OLDA/100): X reset from X0 each outer
// iteration, incremented in a doubly-triangular inner nest. After
// substitution A's subscript must equal K + 1 + (I*(N^2+N)+J^2-J)/2.
func TestFigure2TRFD(t *testing.T) {
	u, res := run(t, `
      SUBROUTINE OLDA(M, N, A)
      INTEGER M, N, I, J, K, X, X0
      REAL A(M*N*N)
      X0 = 0
      DO I = 0, M-1
        X = X0
        DO J = 0, N-1
          DO K = 0, J-1
            X = X + 1
            A(X) = 0.25
          END DO
        END DO
        X0 = X0 + (N**2+N)/2
      END DO
      END
`)
	names := solvedNames(res)
	if !names["X0"] || !names["X"] {
		t.Fatalf("TRFD solve incomplete (solved %v):\n%s", res.Solved, u.Fortran())
	}
	// Find the assignment to A and check the subscript value.
	var sub ir.Expr
	ir.WalkStmts(u.Body, func(s ir.Stmt) bool {
		if a, ok := s.(*ir.AssignStmt); ok {
			if ar, ok := a.LHS.(*ir.ArrayRef); ok && ar.Name == "A" {
				sub = ar.Subs[0]
			}
		}
		return true
	})
	if sub == nil {
		t.Fatalf("assignment to A vanished:\n%s", u.Fortran())
	}
	checkEquivalent(t, u, sub, "K + 1 + (I*(N**2+N)+J**2-J)/2",
		map[string]int64{"I": 3, "J": 4, "K": 2, "N": 7, "M": 5})
}

// checkEquivalent evaluates both expressions at the sample point and at
// a few perturbations, requiring equal integer values.
func checkEquivalent(t *testing.T, u *ir.ProgramUnit, got ir.Expr, wantSrc string, base map[string]int64) {
	t.Helper()
	want, err := parser.ParseExpr(wantSrc)
	if err != nil {
		t.Fatalf("bad want expression: %v", err)
	}
	for delta := int64(0); delta < 3; delta++ {
		vals := map[string]int64{}
		for k, v := range base {
			vals[k] = v + delta
		}
		g, ok1 := evalInt(got, vals)
		w, ok2 := evalInt(want, vals)
		if !ok1 || !ok2 {
			t.Fatalf("evaluation failed for %s (ok=%v) vs %s (ok=%v)", got, ok1, want, ok2)
		}
		if g != w {
			t.Errorf("subscript %s = %d at %v, want %s = %d", got, g, vals, want, w)
		}
	}
}

func evalInt(e ir.Expr, vals map[string]int64) (int64, bool) {
	switch x := e.(type) {
	case *ir.ConstInt:
		return x.Val, true
	case *ir.VarRef:
		v, ok := vals[x.Name]
		return v, ok
	case *ir.Unary:
		if x.Op != ir.OpNeg {
			return 0, false
		}
		v, ok := evalInt(x.X, vals)
		return -v, ok
	case *ir.Binary:
		l, ok1 := evalInt(x.L, vals)
		r, ok2 := evalInt(x.R, vals)
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
		case ir.OpDiv:
			if r == 0 {
				return 0, false
			}
			return l / r, true
		case ir.OpPow:
			out := int64(1)
			for i := int64(0); i < r; i++ {
				out *= l
			}
			return out, true
		}
	}
	return 0, false
}

func TestConditionalIncrementRejected(t *testing.T) {
	_, res := run(t, `
      SUBROUTINE S(N, A)
      INTEGER N, I, K
      REAL A(N)
      K = 0
      DO I = 1, N
        IF (A(I) .GT. 0.0) THEN
          K = K + 1
        END IF
        A(I) = K
      END DO
      END
`)
	if solvedNames(res)["K"] {
		t.Errorf("conditional induction wrongly solved")
	}
}

func TestNonInductionAssignmentRejected(t *testing.T) {
	_, res := run(t, `
      SUBROUTINE S(N, A)
      INTEGER N, I, K
      REAL A(N)
      DO I = 1, N
        K = K + 1
        K = I * 2
        A(I) = K
      END DO
      END
`)
	if solvedNames(res)["K"] {
		t.Errorf("K with non-recurrence def wrongly solved")
	}
}

func TestIncrementReferencingArrayRejected(t *testing.T) {
	_, res := run(t, `
      SUBROUTINE S(N, A, IDX)
      INTEGER N, I, K, IDX(N)
      REAL A(N)
      K = 0
      DO I = 1, N
        K = K + IDX(I)
        A(I) = K
      END DO
      END
`)
	if solvedNames(res)["K"] {
		t.Errorf("data-dependent increment wrongly solved")
	}
}

func TestCallInNestDisqualifies(t *testing.T) {
	_, res := run(t, `
      PROGRAM P
      INTEGER I, K, N
      REAL A(100)
      N = 10
      K = 0
      DO I = 1, N
        K = K + 1
        CALL BUMP(K)
        A(I) = K
      END DO
      END

      SUBROUTINE BUMP(K)
      INTEGER K
      K = K + 5
      END
`)
	if solvedNames(res)["K"] {
		t.Errorf("K passed to CALL wrongly solved")
	}
}

func TestInvariantSymbolicIncrement(t *testing.T) {
	u, res := run(t, `
      SUBROUTINE S(N, C, A)
      INTEGER N, C, I, K
      REAL A(N*N)
      K = 0
      DO I = 1, N
        K = K + C
        A(K) = 1.0
      END DO
      END
`)
	if !solvedNames(res)["K"] {
		t.Fatalf("symbolic invariant increment not solved:\n%s", u.Fortran())
	}
	loop := ir.Loops(u.Body)[0]
	sub := loop.Body.Stmts[0].(*ir.AssignStmt).LHS.(*ir.ArrayRef).Subs[0]
	checkEquivalent(t, u, sub, "I*C", map[string]int64{"I": 4, "C": 3, "N": 10})
}

func TestMultiplicativeInduction(t *testing.T) {
	u, res := run(t, `
      SUBROUTINE S(N, A)
      INTEGER N, I, K
      REAL A(N)
      K = 1
      DO I = 1, N
        K = K * 2
        A(I) = K
      END DO
      END
`)
	found := false
	for _, s := range res.Solved {
		if s.Name == "K" && s.Multiplicative {
			found = true
		}
	}
	if !found {
		t.Fatalf("multiplicative K not solved:\n%s", u.Fortran())
	}
	src := u.Fortran()
	if !strings.Contains(src, "2**") && !strings.Contains(src, "2**(") {
		t.Errorf("no geometric closed form in output:\n%s", src)
	}
	// The recurrence statement must be gone.
	loop := ir.Loops(u.Body)[0]
	for _, s := range loop.Body.Stmts {
		if a, ok := s.(*ir.AssignStmt); ok {
			if v, ok := a.LHS.(*ir.VarRef); ok && v.Name == "K" {
				t.Errorf("multiplicative recurrence survived")
			}
		}
	}
}

func TestTwoIncrementsPerIteration(t *testing.T) {
	u, res := run(t, `
      SUBROUTINE S(N, A)
      INTEGER N, I, K
      REAL A(3*N)
      K = 0
      DO I = 1, N
        K = K + 1
        A(K) = 1.0
        K = K + 2
        A(K) = 2.0
      END DO
      END
`)
	if !solvedNames(res)["K"] {
		t.Fatalf("multi-increment K not solved")
	}
	loop := ir.Loops(u.Body)[0]
	if len(loop.Body.Stmts) != 2 {
		t.Fatalf("body = %d stmts, want 2:\n%s", len(loop.Body.Stmts), u.Fortran())
	}
	sub1 := loop.Body.Stmts[0].(*ir.AssignStmt).LHS.(*ir.ArrayRef).Subs[0]
	sub2 := loop.Body.Stmts[1].(*ir.AssignStmt).LHS.(*ir.ArrayRef).Subs[0]
	checkEquivalent(t, u, sub1, "3*I - 2", map[string]int64{"I": 4, "N": 10})
	checkEquivalent(t, u, sub2, "3*I", map[string]int64{"I": 4, "N": 10})
}

func TestStep2LoopRejected(t *testing.T) {
	_, res := run(t, `
      SUBROUTINE S(N, A)
      INTEGER N, I, K
      REAL A(N)
      K = 0
      DO I = 1, N, 2
        K = K + 1
        A(K) = 1.0
      END DO
      END
`)
	if solvedNames(res)["K"] {
		t.Errorf("non-unit-step loop wrongly solved")
	}
}

func TestRealAccumulatorNotInduction(t *testing.T) {
	_, res := run(t, `
      SUBROUTINE S(N, A)
      INTEGER N, I
      REAL A(N), SUM
      SUM = 0.0
      DO I = 1, N
        SUM = SUM + A(I)
      END DO
      A(1) = SUM
      END
`)
	if solvedNames(res)["SUM"] {
		t.Errorf("real accumulator treated as induction variable (it is a reduction)")
	}
}
