package core_test

import (
	"math"
	"strings"
	"testing"

	"polaris/internal/core"
	"polaris/internal/interp"
	"polaris/internal/ir"
	"polaris/internal/machine"
	"polaris/internal/parser"
	"polaris/internal/pfa"
)

func compile(t *testing.T, src string, opt core.Options) *core.Result {
	t.Helper()
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := core.Compile(prog, opt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return res
}

func loopByIndex(res *core.Result, idx string) *core.LoopReport {
	for i := range res.Loops {
		if res.Loops[i].Index == idx {
			return &res.Loops[i]
		}
	}
	return nil
}

// loopStmt returns the DO statement lr names by (Unit, ID).
func loopStmt(t *testing.T, res *core.Result, lr *core.LoopReport) *ir.DoStmt {
	t.Helper()
	if u := res.Program.Unit(lr.Unit); u != nil {
		for _, d := range ir.Loops(u.Body) {
			if d.ID == lr.ID {
				return d
			}
		}
	}
	t.Fatalf("no loop %s/%s in the program", lr.Unit, lr.ID)
	return nil
}

const trfdLike = `
      PROGRAM TRFD
      INTEGER M, N, I, J, K, X, X0
      PARAMETER (M=6, N=10)
      REAL A(M*N*N)
      X0 = 0
      DO I = 0, M-1
        X = X0
        DO J = 0, N-1
          DO K = 0, J-1
            X = X + 1
            A(X) = A(X) + 0.25
          END DO
        END DO
        X0 = X0 + (N**2+N)/2
      END DO
      END
`

func TestTRFDPipelineEndToEnd(t *testing.T) {
	res := compile(t, trfdLike, core.PolarisOptions())
	if len(res.InductionVars) < 2 {
		t.Fatalf("induction vars = %v", res.InductionVars)
	}
	outer := loopByIndex(res, "I")
	if outer == nil || !outer.Parallel {
		t.Fatalf("TRFD outer loop not parallel:\n%s", res.Summary())
	}
	// The PFA baseline must fail on the same program.
	prog, _ := parser.ParseProgram(trfdLike)
	pres, err := pfa.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	pouter := loopByIndex(pres.Result, "I")
	if pouter == nil {
		// The induction variable may not even be removed; find any
		// top-level loop verdict.
		t.Fatalf("no outer loop in PFA result")
	}
	if pouter.Parallel {
		t.Errorf("PFA baseline wrongly parallelized TRFD outer loop")
	}
}

func TestCompiledProgramRunsCorrectly(t *testing.T) {
	src := `
      PROGRAM P
      REAL RESULT
      COMMON /OUT/ RESULT
      REAL A(500), B(500), S
      INTEGER I
      DO I = 1, 500
        B(I) = I * 0.5
      END DO
      S = 0.0
      DO I = 1, 500
        A(I) = B(I) * 2.0
        S = S + A(I)
      END DO
      RESULT = S
      END
`
	// Serial reference.
	prog1, _ := parser.ParseProgram(src)
	ref := interp.New(prog1, machine.Default())
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	refTime := ref.Time()

	// Compiled + parallel execution (validated order reversal).
	res := compile(t, src, core.PolarisOptions())
	in := interp.New(res.Program, machine.Default())
	in.Parallel = true
	in.Validate = true
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if in.ParallelLoopExecs == 0 {
		t.Fatalf("no parallel loops executed:\n%s", res.Summary())
	}
	if in.Time() >= refTime {
		t.Errorf("no speedup: %d vs %d", in.Time(), refTime)
	}
}

func TestReductionValidatedAndAnnotated(t *testing.T) {
	src := `
      SUBROUTINE S(N, A, SUM)
      INTEGER N, I
      REAL A(N), SUM
      DO I = 1, N
        SUM = SUM + A(I) * A(I)
      END DO
      END
`
	res := compile(t, src, core.PolarisOptions())
	l := loopByIndex(res, "I")
	if l == nil || !l.Parallel {
		t.Fatalf("reduction loop not parallel:\n%s", res.Summary())
	}
	par := loopStmt(t, res, l).Par
	if len(par.Reductions) != 1 || par.Reductions[0].Target != "SUM" {
		t.Errorf("reduction annotation missing: %+v", par)
	}
}

func TestLRPDCandidateFlagged(t *testing.T) {
	src := `
      SUBROUTINE S(N, A, B, IND)
      INTEGER N, I, IND(N)
      REAL A(N), B(N)
      DO I = 1, N
        A(IND(I)) = B(I) + 1.0 / I
      END DO
      END
`
	res := compile(t, src, core.PolarisOptions())
	l := loopByIndex(res, "I")
	if l == nil || l.Parallel {
		t.Fatalf("scatter loop wrongly static-parallel")
	}
	if len(l.RunTimeTest) != 1 || l.RunTimeTest[0] != "A" {
		t.Errorf("LRPD candidate not flagged: %+v\n%s", l, res.Summary())
	}
	// Without LRPD enabled: plain serial.
	opt := core.PolarisOptions()
	opt.LRPD = false
	res2 := compile(t, src, opt)
	if l2 := loopByIndex(res2, "I"); len(l2.RunTimeTest) != 0 {
		t.Errorf("LRPD flagged despite being disabled")
	}
}

func TestInlineEnablesParallelization(t *testing.T) {
	src := `
      PROGRAM P
      REAL A(100), B(100)
      INTEGER I
      DO I = 1, 100
        CALL WORK(A, B, I)
      END DO
      END

      SUBROUTINE WORK(A, B, I)
      INTEGER I
      REAL A(100), B(100)
      A(I) = B(I) + 1.0
      END
`
	res := compile(t, src, core.PolarisOptions())
	l := loopByIndex(res, "I")
	if l == nil || !l.Parallel {
		t.Errorf("inlined loop not parallel:\n%s", res.Summary())
	}
	// Without inlining the CALL blocks it.
	opt := core.PolarisOptions()
	opt.Inline = false
	res2 := compile(t, src, opt)
	if l2 := loopByIndex(res2, "I"); l2.Parallel {
		t.Errorf("un-inlined CALL loop wrongly parallel")
	}
}

func TestBlockedScalarSerializes(t *testing.T) {
	src := `
      SUBROUTINE S(N, A)
      INTEGER N, I
      REAL A(N), T
      T = 0.0
      DO I = 1, N
        A(I) = T
        T = A(I) + 1.0
      END DO
      END
`
	res := compile(t, src, core.PolarisOptions())
	l := loopByIndex(res, "I")
	if l.Parallel {
		t.Errorf("loop with carried scalar wrongly parallel")
	}
}

// TestBlockedScalarReasonIsStable: a loop serialized by two scalars
// names the same one on every compile (the blocked set is a map; the
// verdict used to name whichever Go's iteration order yielded first).
func TestBlockedScalarReasonIsStable(t *testing.T) {
	src := `
      SUBROUTINE S(N, A)
      INTEGER N, I
      REAL A(N), T1, T2
      T1 = 0.0
      T2 = 0.0
      DO I = 1, N
        A(I) = T1 + T2
        T2 = A(I) + 1.0
        T1 = A(I) * 2.0
      END DO
      END
`
	for i := 0; i < 20; i++ {
		res := compile(t, src, core.PolarisOptions())
		if r := loopByIndex(res, "I").Reason; !strings.HasPrefix(r, "scalar T1:") {
			t.Fatalf("compile %d: reason %q, want the first blocked scalar by name, T1", i, r)
		}
	}
}

func TestPrivatizationEnablesOuterLoop(t *testing.T) {
	src := `
      SUBROUTINE S(N, B, C)
      INTEGER N, I, J, K
      REAL B(N,N), C(N,N), W(500)
      DO I = 1, N
        DO J = 1, N
          W(J) = B(J,I) * 2.0
        END DO
        DO K = 1, N
          C(K,I) = W(K) + 1.0
        END DO
      END DO
      END
`
	res := compile(t, src, core.PolarisOptions())
	l := loopByIndex(res, "I")
	if !l.Parallel {
		t.Fatalf("outer loop with private work array not parallel:\n%s", res.Summary())
	}
	par := loopStmt(t, res, l).Par
	found := false
	for _, a := range par.PrivateArrays {
		if a == "W" {
			found = true
		}
	}
	if !found {
		t.Errorf("W not in private arrays: %+v", par)
	}
	// PFA (no array privatization) must fail.
	prog, _ := parser.ParseProgram(src)
	pres, _ := pfa.Compile(prog)
	if pl := loopByIndex(pres.Result, "I"); pl.Parallel {
		t.Errorf("PFA wrongly parallelized despite no array privatization")
	}
}

func TestPFAHandlesSimpleLoops(t *testing.T) {
	src := `
      PROGRAM P
      REAL A(100), B(100)
      INTEGER I, K
      K = 0
      DO I = 1, 100
        K = K + 1
        A(K) = B(K) + 1.0
      END DO
      END
`
	prog, _ := parser.ParseProgram(src)
	res, err := pfa.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	l := loopByIndex(res.Result, "I")
	if l == nil || !l.Parallel {
		t.Errorf("PFA failed on a simple constant-increment induction loop:\n%s", res.Summary())
	}
}

func TestCompileDoesNotMutateInput(t *testing.T) {
	prog, _ := parser.ParseProgram(trfdLike)
	before := prog.Fortran()
	if _, err := core.Compile(prog, core.PolarisOptions()); err != nil {
		t.Fatal(err)
	}
	if prog.Fortran() != before {
		t.Errorf("core.Compile mutated its input program")
	}
}

// End-to-end numeric equivalence: the transformed TRFD program computes
// the same array as the original.
func TestTRFDNumericEquivalence(t *testing.T) {
	withProbe := trfdLike[:len(trfdLike)-len("      END\n")] + `      RESULT = A(1) + A(2) + A(M*N*(N-1)/2)
      END
`
	src := "      PROGRAM TRFD\n      REAL RESULT\n      COMMON /OUT/ RESULT\n" +
		withProbe[len("      PROGRAM TRFD\n"):]
	prog1, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("probe program: %v", err)
	}
	ref := interp.New(prog1, machine.Default())
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	want := probe(t, ref)

	res := compile(t, src, core.PolarisOptions())
	in := interp.New(res.Program, machine.Default())
	in.Parallel = true
	in.Validate = true
	if err := in.Run(); err != nil {
		t.Fatalf("transformed program: %v\n%s", err, res.Program.Fortran())
	}
	got := probe(t, in)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("transformed result %v != original %v", got, want)
	}
}

func probe(t *testing.T, in *interp.Interp) float64 {
	t.Helper()
	v, ok := in.Probe("OUT", "RESULT")
	if !ok {
		t.Fatalf("no COMMON /OUT/ RESULT")
	}
	return v
}

func TestSummaryRenders(t *testing.T) {
	res := compile(t, trfdLike, core.PolarisOptions())
	s := res.Summary()
	if s == "" {
		t.Errorf("empty summary")
	}
	_ = ir.CountStmts(res.Unit.Body)
}
