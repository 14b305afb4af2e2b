package normalize

import (
	"testing"

	"polaris/internal/interp"
	"polaris/internal/ir"
	"polaris/internal/machine"
	"polaris/internal/parser"
	"polaris/internal/rng"
	"polaris/internal/symbolic"
)

func run(t *testing.T, src string) (*ir.Program, *Result) {
	t.Helper()
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	u := prog.Main()
	res := Run(u, rng.New(u, symbolic.NewLeaves()))
	if err := prog.Check(); err != nil {
		t.Fatalf("inconsistent after normalization: %v\n%s", err, u.Fortran())
	}
	return prog, res
}

func probe(t *testing.T, prog *ir.Program) float64 {
	t.Helper()
	in := interp.New(prog, machine.Default())
	if err := in.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	v, ok := in.Probe("OUT", "RESULT")
	if !ok {
		t.Fatalf("no probe")
	}
	return v
}

func TestPositiveStepNormalized(t *testing.T) {
	src := `
      PROGRAM P
      REAL RESULT
      COMMON /OUT/ RESULT
      REAL A(100)
      INTEGER I
      DO I = 1, 99, 2
        A(I) = 1.0 * I
      END DO
      RESULT = A(1) + A(51) + A(99)
      END
`
	ref := probe(t, parser.MustParse(src))
	prog, res := run(t, src)
	if res.Normalized != 1 {
		t.Fatalf("normalized = %d, want 1", res.Normalized)
	}
	d := ir.Loops(prog.Main().Body)[0]
	if d.Step != nil {
		t.Errorf("step survived: %v", d.Step)
	}
	if d.Init.String() != "1" {
		t.Errorf("init = %s, want 1", d.Init)
	}
	if got := probe(t, prog); got != ref {
		t.Errorf("semantics changed: %v vs %v", got, ref)
	}
}

func TestNegativeStepNormalized(t *testing.T) {
	src := `
      PROGRAM P
      REAL RESULT
      COMMON /OUT/ RESULT
      REAL A(50)
      INTEGER I
      DO I = 50, 2, -3
        A(I) = 0.5 * I
      END DO
      RESULT = A(50) + A(47) + A(2)
      END
`
	ref := probe(t, parser.MustParse(src))
	prog, res := run(t, src)
	if res.Normalized != 1 {
		t.Fatalf("negative step not normalized")
	}
	if got := probe(t, prog); got != ref {
		t.Errorf("semantics changed: %v vs %v", got, ref)
	}
}

func TestZeroTripPreserved(t *testing.T) {
	src := `
      PROGRAM P
      REAL RESULT
      COMMON /OUT/ RESULT
      REAL A(10)
      INTEGER I
      A(1) = 7.0
      DO I = 10, 1, 2
        A(1) = -1.0
      END DO
      RESULT = A(1)
      END
`
	prog, res := run(t, src)
	if res.Normalized != 1 {
		t.Fatalf("zero-trip loop not normalized")
	}
	if got := probe(t, prog); got != 7.0 {
		t.Errorf("zero-trip loop executed after normalization: %v", got)
	}
}

func TestLiveOutIndexConstantBounds(t *testing.T) {
	src := `
      PROGRAM P
      REAL RESULT
      COMMON /OUT/ RESULT
      REAL A(30)
      INTEGER I
      DO I = 1, 20, 4
        A(I) = 1.0
      END DO
      RESULT = I
      END
`
	// Fortran exit value: 1 + 4*5 = 21.
	ref := probe(t, parser.MustParse(src))
	if ref != 21 {
		t.Fatalf("reference exit value = %v, want 21", ref)
	}
	prog, res := run(t, src)
	if res.Normalized != 1 {
		t.Fatalf("live-out constant-bounds loop not normalized")
	}
	if got := probe(t, prog); got != 21 {
		t.Errorf("exit value after normalization = %v, want 21", got)
	}
}

func TestLiveOutIndexSymbolicBoundsSkipped(t *testing.T) {
	src := `
      SUBROUTINE S(N, A, IOUT)
      INTEGER N, I, IOUT
      REAL A(N)
      DO I = 1, N, 2
        A(I) = 1.0
      END DO
      IOUT = I
      END
`
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	u := prog.Main()
	res := Run(u, rng.New(u, symbolic.NewLeaves()))
	if res.Normalized != 0 {
		t.Errorf("symbolic-bounds live-out index wrongly normalized:\n%s", u.Fortran())
	}
}

func TestUnitStepUntouched(t *testing.T) {
	src := `
      PROGRAM P
      REAL A(10)
      INTEGER I
      DO I = 1, 10
        A(I) = 1.0
      END DO
      END
`
	prog, res := run(t, src)
	if res.Normalized != 0 {
		t.Errorf("unit-step loop rewritten")
	}
	_ = prog
}

func TestSymbolicBoundsDeadIndexNormalized(t *testing.T) {
	src := `
      SUBROUTINE S(N, A)
      INTEGER N, I
      REAL A(2*N)
      DO I = 2, 2*N, 2
        A(I) = 1.0
      END DO
      END
`
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	u := prog.Main()
	res := Run(u, rng.New(u, symbolic.NewLeaves()))
	if res.Normalized != 1 {
		t.Fatalf("symbolic-bounds dead-index loop not normalized:\n%s", u.Fortran())
	}
	// Subscript becomes 2 + 2*T - 2 = 2*T: still an even-stride access.
	d := ir.Loops(u.Body)[0]
	sub := d.Body.Stmts[0].(*ir.AssignStmt).LHS.(*ir.ArrayRef).Subs[0]
	vals := map[string]int64{d.Index: 3}
	if got := evalInt(t, sub, vals); got != 6 {
		t.Errorf("normalized subscript at T=3 = %d, want 6 (expr %s)", got, sub)
	}
}

// Normalization enables induction substitution on strided loops: the
// induction solver only handles unit steps.
func TestEnablesDownstreamAnalysis(t *testing.T) {
	src := `
      PROGRAM P
      REAL RESULT
      COMMON /OUT/ RESULT
      REAL A(200)
      INTEGER I, K
      K = 0
      DO I = 1, 40, 2
        K = K + 1
        A(K) = 2.0
      END DO
      RESULT = A(20)
      END
`
	prog, res := run(t, src)
	if res.Normalized != 1 {
		t.Fatalf("not normalized")
	}
	if got := probe(t, prog); got != 2.0 {
		t.Errorf("semantics broken: %v", got)
	}
}

func evalInt(t *testing.T, e ir.Expr, vals map[string]int64) int64 {
	t.Helper()
	switch x := e.(type) {
	case *ir.ConstInt:
		return x.Val
	case *ir.VarRef:
		v, ok := vals[x.Name]
		if !ok {
			t.Fatalf("unbound %s", x.Name)
		}
		return v
	case *ir.Unary:
		return -evalInt(t, x.X, vals)
	case *ir.Binary:
		l, r := evalInt(t, x.L, vals), evalInt(t, x.R, vals)
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

// Normalized programs must stay printable and re-parseable (the fresh
// index name must be a legal identifier).
func TestNormalizedSourceReparses(t *testing.T) {
	src := `
      PROGRAM P
      REAL A(100)
      INTEGER I
      DO I = 1, 99, 2
        A(I) = 1.0
      END DO
      END
`
	prog, res := run(t, src)
	if res.Normalized != 1 {
		t.Fatalf("not normalized")
	}
	out := prog.Fortran()
	if _, err := parser.ParseProgram(out); err != nil {
		t.Errorf("normalized output does not reparse: %v\n%s", err, out)
	}
}
