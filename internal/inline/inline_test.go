package inline

import (
	"slices"
	"strings"
	"testing"

	"polaris/internal/ir"
	"polaris/internal/parser"
)

func expand(t *testing.T, src string) (*ir.Program, *ir.ProgramUnit, *Report) {
	t.Helper()
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	top := prog.Main()
	rep := ExpandAll(prog.Units, top, DefaultOptions(), func(name string) int {
		return slices.IndexFunc(prog.Units, func(u *ir.ProgramUnit) bool { return u.Name == name })
	}, nil)
	if err := top.Check(); err != nil {
		t.Fatalf("inlined unit inconsistent: %v\n%s", err, top.Fortran())
	}
	return prog, top, rep
}

func TestSimpleExpansion(t *testing.T) {
	_, top, rep := expand(t, `
      PROGRAM MAIN
      REAL X(10)
      INTEGER I
      DO I = 1, 10
        X(I) = 1.0
      END DO
      CALL SCALE(X, 10)
      END

      SUBROUTINE SCALE(A, N)
      INTEGER N, I
      REAL A(10)
      DO I = 1, N
        A(I) = A(I) * 2.0
      END DO
      RETURN
      END
`)
	if rep.Expanded != 1 || len(rep.Skipped) != 0 {
		t.Fatalf("report: %+v", rep)
	}
	// No CALL remains.
	ir.WalkStmts(top.Body, func(s ir.Stmt) bool {
		if _, ok := s.(*ir.CallStmt); ok {
			t.Errorf("CALL survived expansion")
		}
		return true
	})
	// The loop operating on X is now in MAIN. A(10) formal maps by
	// shape mismatch? A(10) vs X(10): conforming, renamed to X.
	src := top.Fortran()
	if !strings.Contains(src, "X(SCALE_I) = X(SCALE_I)*2.0") {
		t.Errorf("inlined body wrong:\n%s", src)
	}
}

func TestScalarExpressionActualCopiedIn(t *testing.T) {
	_, top, rep := expand(t, `
      PROGRAM MAIN
      REAL Y
      Y = 0.0
      CALL ADD(Y, 1.0+2.0)
      END

      SUBROUTINE ADD(ACC, V)
      REAL ACC, V
      ACC = ACC + V
      END
`)
	if rep.Expanded != 1 {
		t.Fatalf("not expanded: %+v", rep)
	}
	src := top.Fortran()
	if !strings.Contains(src, "INL_V = 1.0+2.0") {
		t.Errorf("copy-in temp missing:\n%s", src)
	}
	if !strings.Contains(src, "Y = Y+INL_V") {
		t.Errorf("use of temp missing:\n%s", src)
	}
}

func TestNestedCallsExpand(t *testing.T) {
	_, top, rep := expand(t, `
      PROGRAM MAIN
      REAL X
      X = 1.0
      CALL OUTER(X)
      END

      SUBROUTINE OUTER(A)
      REAL A
      CALL INNER(A)
      A = A + 1.0
      END

      SUBROUTINE INNER(B)
      REAL B
      B = B * 2.0
      END
`)
	if rep.Expanded != 2 {
		t.Fatalf("expanded = %d, want 2 (%+v)", rep.Expanded, rep.Skipped)
	}
	ir.WalkStmts(top.Body, func(s ir.Stmt) bool {
		if _, ok := s.(*ir.CallStmt); ok {
			t.Errorf("CALL survived nested expansion")
		}
		return true
	})
}

func TestLinearization2DTo1D(t *testing.T) {
	_, top, rep := expand(t, `
      PROGRAM MAIN
      REAL BUF(100)
      CALL FILL(BUF)
      END

      SUBROUTINE FILL(M)
      REAL M(10,10)
      INTEGER I, J
      DO I = 1, 10
        DO J = 1, 10
          M(I,J) = 0.0
        END DO
      END DO
      END
`)
	if rep.Expanded != 1 {
		t.Fatalf("not expanded: %+v", rep.Skipped)
	}
	src := top.Fortran()
	// M(I,J) -> BUF(1 + (I-1) + 10*(J-1)), modulo expression shape.
	if !strings.Contains(src, "BUF(") {
		t.Errorf("linearization missing:\n%s", src)
	}
	// Check the subscript evaluates correctly: element (3,4) = 1+(2)+10*3 = 33.
	var sub ir.Expr
	ir.WalkStmtExprs(top.Body, func(e ir.Expr) bool {
		if a, ok := e.(*ir.ArrayRef); ok && a.Name == "BUF" {
			sub = a.Subs[0]
		}
		return true
	})
	if sub == nil {
		t.Fatalf("no BUF reference")
	}
	got := evalWith(t, sub, map[string]int64{"FILL_I": 3, "FILL_J": 4})
	if got != 33 {
		t.Errorf("linearized index = %d, want 33 (expr %s)", got, sub)
	}
}

func TestArrayElementActualWindow(t *testing.T) {
	_, top, rep := expand(t, `
      PROGRAM MAIN
      REAL BUF(100)
      CALL ZERO(BUF(41), 10)
      END

      SUBROUTINE ZERO(S, N)
      INTEGER N, I
      REAL S(N)
      DO I = 1, N
        S(I) = 0.0
      END DO
      END
`)
	if rep.Expanded != 1 {
		t.Fatalf("not expanded: %+v", rep.Skipped)
	}
	var sub ir.Expr
	ir.WalkStmtExprs(top.Body, func(e ir.Expr) bool {
		if a, ok := e.(*ir.ArrayRef); ok && a.Name == "BUF" {
			sub = a.Subs[0]
		}
		return true
	})
	if sub == nil {
		t.Fatalf("no BUF reference:\n%s", top.Fortran())
	}
	// S(1) must map to BUF(41).
	if got := evalWith(t, sub, map[string]int64{"ZERO_I": 1}); got != 41 {
		t.Errorf("window base = %d, want 41 (expr %s)", got, sub)
	}
}

func TestRecursiveCallSkipped(t *testing.T) {
	_, _, rep := expand(t, `
      PROGRAM MAIN
      REAL X
      CALL R(X)
      END

      SUBROUTINE R(A)
      REAL A
      A = A - 1.0
      IF (A .GT. 0.0) THEN
        CALL R(A)
      END IF
      END
`)
	if rep.Expanded != 0 {
		t.Errorf("recursive call expanded")
	}
	if _, ok := rep.Skipped["R"]; !ok {
		t.Errorf("recursion not reported: %+v", rep)
	}
}

func TestEarlyReturnSkipped(t *testing.T) {
	_, _, rep := expand(t, `
      PROGRAM MAIN
      REAL X
      CALL E(X)
      END

      SUBROUTINE E(A)
      REAL A
      IF (A .GT. 0.0) THEN
        RETURN
      END IF
      A = 1.0
      END
`)
	if rep.Expanded != 0 || len(rep.Skipped) == 0 {
		t.Errorf("early RETURN not skipped: %+v", rep)
	}
}

func TestLocalsRenamedApart(t *testing.T) {
	_, top, _ := expand(t, `
      PROGRAM MAIN
      REAL T
      T = 5.0
      CALL W1
      END

      SUBROUTINE W1
      REAL T
      T = 1.0
      END
`)
	src := top.Fortran()
	// The callee's T must have been renamed.
	if !strings.Contains(src, "W1_T = 1.0") {
		t.Errorf("local not renamed:\n%s", src)
	}
	if !strings.Contains(src, "T = 5.0") {
		t.Errorf("caller's T clobbered:\n%s", src)
	}
}

func TestParameterConstantHoisted(t *testing.T) {
	_, top, rep := expand(t, `
      PROGRAM MAIN
      REAL X(8)
      CALL INIT(X)
      END

      SUBROUTINE INIT(A)
      INTEGER NN, I
      PARAMETER (NN=8)
      REAL A(NN)
      DO I = 1, NN
        A(I) = 0.0
      END DO
      END
`)
	if rep.Expanded != 1 {
		t.Fatalf("not expanded: %+v", rep.Skipped)
	}
	sym := top.Symbols.Lookup("INIT_NN")
	if sym == nil || sym.Param == nil {
		t.Errorf("parameter constant not hoisted: %v\n%s", sym, top.Fortran())
	}
}

func evalWith(t *testing.T, e ir.Expr, vals map[string]int64) int64 {
	t.Helper()
	switch x := e.(type) {
	case *ir.ConstInt:
		return x.Val
	case *ir.VarRef:
		v, ok := vals[x.Name]
		if !ok {
			t.Fatalf("unexpected var %s", x.Name)
		}
		return v
	case *ir.Unary:
		return -evalWith(t, x.X, vals)
	case *ir.Binary:
		l, r := evalWith(t, x.L, vals), evalWith(t, x.R, vals)
		switch x.Op {
		case ir.OpAdd:
			return l + r
		case ir.OpSub:
			return l - r
		case ir.OpMul:
			return l * r
		case ir.OpDiv:
			return l / r
		}
	}
	t.Fatalf("unexpected expr %T", e)
	return 0
}
