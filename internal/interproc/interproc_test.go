package interproc_test

import (
	"testing"

	"polaris/internal/core"
	"polaris/internal/interp"
	"polaris/internal/interproc"
	"polaris/internal/ir"
	"polaris/internal/machine"
	"polaris/internal/parser"
)

func propagate(t *testing.T, src string) (*ir.Program, *interproc.Report) {
	t.Helper()
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan := interproc.Analyze(prog)
	for i, u := range prog.Units {
		plan.Apply(i, u)
	}
	if err := prog.Check(); err != nil {
		t.Fatalf("inconsistent after propagation: %v\n%s", err, prog.Fortran())
	}
	return prog, &plan.Report
}

// sigsByName keys rep's non-empty unit signatures by unit name.
func sigsByName(t *testing.T, prog *ir.Program, rep *interproc.Report) map[string]string {
	t.Helper()
	if len(rep.UnitSigs) != len(prog.Units) {
		t.Fatalf("%d signatures for %d units", len(rep.UnitSigs), len(prog.Units))
	}
	out := map[string]string{}
	for i, sig := range rep.UnitSigs {
		if sig != "" {
			out[prog.Units[i].Name] = sig
		}
	}
	return out
}

const uniformSrc = `
      PROGRAM P
      REAL RESULT
      COMMON /OUT/ RESULT
      REAL X(64)
      INTEGER I
      DO I = 1, 64
        X(I) = 0.0
      END DO
      CALL FILL(X, 8)
      CALL FILL(X, 8)
      RESULT = X(5)
      END

      SUBROUTINE FILL(A, N)
      INTEGER N, I
      REAL A(N*N)
      DO I = 1, N*N
        A(I) = A(I) + 1.0
      END DO
      END
`

func TestUniformConstantPropagated(t *testing.T) {
	ref := runProbe(t, parser.MustParse(uniformSrc))
	prog, rep := propagate(t, uniformSrc)
	if rep.Propagated["FILL.N"] != 8 {
		t.Fatalf("N not propagated: %+v", rep.Propagated)
	}
	fill := prog.Unit("FILL")
	if len(fill.Formals) != 1 || fill.Formals[0] != "A" {
		t.Errorf("formals = %v, want [A]", fill.Formals)
	}
	if sym := fill.Symbols.Lookup("N"); sym == nil || sym.Param == nil || sym.Param.String() != "8" {
		t.Errorf("N not a PARAMETER 8: %+v", sym)
	}
	// Calls updated.
	ir.WalkStmts(prog.Main().Body, func(s ir.Stmt) bool {
		if c, ok := s.(*ir.CallStmt); ok && c.Name == "FILL" && len(c.Args) != 1 {
			t.Errorf("call args = %d, want 1", len(c.Args))
		}
		return true
	})
	if got := runProbe(t, prog); got != ref {
		t.Errorf("semantics changed: %v vs %v", got, ref)
	}
}

func TestNonUniformSkipped(t *testing.T) {
	src := `
      PROGRAM P
      REAL X(64)
      CALL FILL(X, 4)
      CALL FILL(X, 8)
      END

      SUBROUTINE FILL(A, N)
      INTEGER N, I
      REAL A(N)
      DO I = 1, N
        A(I) = 1.0
      END DO
      END
`
	prog, rep := propagate(t, src)
	if len(rep.Propagated) != 0 {
		t.Errorf("non-uniform constant propagated: %+v", rep.Propagated)
	}
	if len(prog.Unit("FILL").Formals) != 2 {
		t.Errorf("formals changed")
	}
}

func TestVariableActualSkipped(t *testing.T) {
	src := `
      PROGRAM P
      REAL X(64)
      INTEGER M
      M = 8
      CALL FILL(X, M)
      END

      SUBROUTINE FILL(A, N)
      INTEGER N, I
      REAL A(N)
      DO I = 1, N
        A(I) = 1.0
      END DO
      END
`
	_, rep := propagate(t, src)
	if len(rep.Propagated) != 0 {
		t.Errorf("variable actual propagated: %+v", rep.Propagated)
	}
}

func TestModifiedFormalSkipped(t *testing.T) {
	src := `
      PROGRAM P
      REAL X(64)
      CALL BUMP(X, 5)
      END

      SUBROUTINE BUMP(A, N)
      INTEGER N
      REAL A(64)
      N = N + 1
      A(N) = 1.0
      END
`
	_, rep := propagate(t, src)
	if len(rep.Propagated) != 0 {
		t.Errorf("assigned formal propagated: %+v", rep.Propagated)
	}
}

func TestFormalPassedOnwardSkipped(t *testing.T) {
	src := `
      PROGRAM P
      REAL X(64)
      CALL OUTER(X, 5)
      END

      SUBROUTINE OUTER(A, N)
      INTEGER N
      REAL A(64)
      CALL MUTATE(N)
      A(N) = 1.0
      END

      SUBROUTINE MUTATE(N)
      INTEGER N
      N = N * 2
      END
`
	_, rep := propagate(t, src)
	if _, bad := rep.Propagated["OUTER.N"]; bad {
		t.Errorf("formal passed by reference to a mutator was propagated")
	}
}

// The propagation must enable analyses that need the constant: a
// GCD-refutable stride that is symbolic without it.
func TestEnablesDependenceAnalysis(t *testing.T) {
	src := `
      PROGRAM P
      REAL X(300)
      CALL SPLIT(X, 2)
      END

      SUBROUTINE SPLIT(A, M)
      INTEGER M, I
      REAL A(300)
      DO I = 1, 100
        A(M*I) = A(M*I + 1) + 1.0
      END DO
      END
`
	compileAndCheck := func(interprocOn bool) bool {
		opt := core.PolarisOptions()
		opt.Inline = false // isolate the interprocedural effect
		opt.InterprocConstants = interprocOn
		res, err := core.Compile(parser.MustParse(src), opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, lr := range res.Loops {
			if lr.Unit == "SPLIT" && lr.Index == "I" {
				return lr.Parallel
			}
		}
		return false
	}
	if !compileAndCheck(true) {
		t.Errorf("loop not parallel with interprocedural constants (GCD needs M=2)")
	}
	if compileAndCheck(false) {
		t.Errorf("loop parallel without the constant (symbolic M should block GCD)")
	}
}

func runProbe(t *testing.T, prog *ir.Program) float64 {
	t.Helper()
	in := interp.New(prog, machine.Default())
	if err := in.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	v, _ := in.Probe("OUT", "RESULT")
	return v
}

// TestUnitSigsGolden pins the signature text of a unit that is both
// specialized itself and a caller of three specialized callees: the
// strings are unit-memo key material, so their bytes are a contract.
func TestUnitSigsGolden(t *testing.T) {
	prog, rep := propagate(t, `
      PROGRAM P
      REAL X(64)
      CALL MID(X, 7, 2)
      CALL ZA(X, 4)
      END

      SUBROUTINE MID(A, N, M)
      INTEGER N, M
      REAL A(64)
      CALL ZC(A, 6, 3)
      CALL ZA(A, 4)
      CALL ZB(A, 5)
      CALL ZC(A, 6, 3)
      A(N) = A(M)
      END

      SUBROUTINE ZA(A, K)
      INTEGER K
      REAL A(64)
      A(K) = 1.0
      END

      SUBROUTINE ZB(A, K)
      INTEGER K
      REAL A(64)
      A(K) = 2.0
      END

      SUBROUTINE ZC(A, K, L)
      INTEGER K, L
      REAL A(64)
      A(K) = A(L)
      END
`)
	want := map[string]string{
		"P":   "call-MID[1=7,1=2];call-ZA[1=4]",
		"MID": "self[1:N=7,1:M=2];call-ZA[1=4];call-ZB[1=5];call-ZC[1=6,1=3]",
		"ZA":  "self[1:K=4]",
		"ZB":  "self[1:K=5]",
		"ZC":  "self[1:K=6,1:L=3]",
	}
	sigs := sigsByName(t, prog, rep)
	if len(sigs) != len(want) {
		t.Errorf("signatures for %d units, want %d: %q", len(sigs), len(want), sigs)
	}
	for unit, sig := range want {
		if got := sigs[unit]; got != sig {
			t.Errorf("UnitSigs[%s] = %q, want %q", unit, got, sig)
		}
	}
}
