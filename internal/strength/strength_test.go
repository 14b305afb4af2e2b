package strength

import (
	"strings"
	"testing"

	"polaris/internal/ir"
	"polaris/internal/parser"
	"polaris/internal/rng"
	"polaris/internal/symbolic"
)

// prepare parses, marks the outer loop parallel (as the core pipeline
// would), runs the pass, and returns the unit and result.
func prepare(t *testing.T, src string, markParallel ...string) (*ir.ProgramUnit, *Result) {
	t.Helper()
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	u := prog.Main()
	want := map[string]bool{}
	for _, idx := range markParallel {
		want[idx] = true
	}
	for _, d := range ir.Loops(u.Body) {
		if want[d.Index] {
			d.Par = &ir.ParInfo{Parallel: true}
		}
	}
	res := Run(u, rng.New(u, symbolic.NewLeaves()))
	if err := u.Check(); err != nil {
		t.Fatalf("IR inconsistent after pass: %v\n%s", err, u.Fortran())
	}
	return u, res
}

const polySrc = `
      SUBROUTINE S(M, N, A)
      INTEGER M, N, I, J, K
      REAL A(100000)
      DO I = 0, M-1
        DO J = 0, N-1
          DO K = 0, J-1
            A(K + 1 + (I*(N*N+N)+J*J-J)/2) = 0.25
          END DO
        END DO
      END DO
      END
`

func TestReducesPolynomialSubscript(t *testing.T) {
	u, res := prepare(t, polySrc, "I")
	if res.Reduced == 0 {
		t.Fatalf("nothing reduced:\n%s", u.Fortran())
	}
	src := u.Fortran()
	if !strings.Contains(src, "SR_K") {
		t.Errorf("no accumulator introduced:\n%s", src)
	}
	// The innermost body must now index through the accumulator.
	inner := ir.Loops(u.Body)[2]
	assign := inner.Body.Stmts[0].(*ir.AssignStmt)
	sub := assign.LHS.(*ir.ArrayRef).Subs[0]
	if _, isVar := sub.(*ir.VarRef); !isVar {
		t.Errorf("subscript not replaced by accumulator: %s", sub)
	}
	// The increment statement closes the body.
	last := inner.Body.Stmts[len(inner.Body.Stmts)-1].(*ir.AssignStmt)
	if last.RHS.String() != res.Temps[0]+"+1" {
		t.Errorf("increment = %s, want %s+1", last.RHS, res.Temps[0])
	}
	// The accumulator is private at the parallel ancestor.
	outer := ir.Loops(u.Body)[0]
	found := false
	for _, p := range outer.Par.Private {
		if p == res.Temps[0] {
			found = true
		}
	}
	if !found {
		t.Errorf("accumulator not privatized at the parallel ancestor: %+v", outer.Par)
	}
}

// The transformation must preserve program results exactly.
func TestSemanticsPreserved(t *testing.T) {
	src := `
      PROGRAM P
      REAL RESULT
      COMMON /OUT/ RESULT
      INTEGER N, I, K
      PARAMETER (N=12)
      REAL A(N*N*2)
      DO I = 1, N
        DO K = 1, N
          A(K*K + I*N - K) = K * 2.0
        END DO
      END DO
      RESULT = A(3*3 + 2*N - 3) + A(N*N + N*N - N)
      END
`
	ref := evalProgram(t, src, nil)
	got := evalProgram(t, src, func(u *ir.ProgramUnit) {
		for _, d := range ir.OuterLoops(u.Body) {
			d.Par = &ir.ParInfo{Parallel: true}
		}
		Run(u, rng.New(u, symbolic.NewLeaves()))
	})
	if ref != got {
		t.Errorf("results differ: %v vs %v", ref, got)
	}
}

func TestNoParallelAncestorNoChange(t *testing.T) {
	u, res := prepare(t, polySrc) // nothing marked parallel
	if res.Reduced != 0 {
		t.Errorf("reduced outside a parallel ancestor:\n%s", u.Fortran())
	}
}

func TestCheapExpressionsSkipped(t *testing.T) {
	u, res := prepare(t, `
      SUBROUTINE S(N, A)
      INTEGER N, I, K
      REAL A(10000)
      DO I = 1, N
        DO K = 1, N
          A(K) = 1.0
        END DO
      END DO
      END
`, "I")
	if res.Reduced != 0 {
		t.Errorf("trivial subscript reduced:\n%s", u.Fortran())
	}
}

func TestLoopVariantCoefficientSkipped(t *testing.T) {
	_, res := prepare(t, `
      SUBROUTINE S(N, A)
      INTEGER N, I, K, Q
      REAL A(100000)
      DO I = 1, N
        DO K = 1, N
          Q = Q + 2
          A(K*Q + K*K + Q*Q + 3) = 1.0
        END DO
      END DO
      END
`, "I")
	// Q changes inside the loop: the polynomial's coefficients are not
	// invariant, so no reduction is legal. (Q itself is an induction
	// variable, but this pass runs after induction substitution; here
	// it must simply refuse.)
	if res.Reduced != 0 {
		t.Errorf("loop-variant coefficient wrongly reduced")
	}
}

func TestRealTypedExpressionSkipped(t *testing.T) {
	_, res := prepare(t, `
      SUBROUTINE S(N, A, X)
      INTEGER N, I, K
      REAL A(1000), X
      DO I = 1, N
        DO K = 1, N
          A(K) = X * K + X * X * K * K + 1.0
        END DO
      END DO
      END
`, "I")
	if res.Reduced != 0 {
		t.Errorf("real-typed expression wrongly reduced (only integer subscript math qualifies)")
	}
}

func TestParallelInnermostDemoted(t *testing.T) {
	u, _ := prepare(t, polySrc, "I", "K")
	inner := ir.Loops(u.Body)[2]
	if inner.Par.Parallel {
		t.Errorf("strength-reduced innermost loop still marked parallel")
	}
}

// evalProgram interprets the program (optionally transformed) and
// returns the RESULT probe. Uses the public interpreter via a local
// import-free evaluation: parse, transform, run.
func evalProgram(t *testing.T, src string, transform func(*ir.ProgramUnit)) float64 {
	t.Helper()
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if transform != nil {
		transform(prog.Main())
	}
	if err := prog.Check(); err != nil {
		t.Fatalf("inconsistent after transform: %v", err)
	}
	return runInterp(t, prog)
}
