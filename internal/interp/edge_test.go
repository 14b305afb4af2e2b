package interp

import (
	"math"
	"strings"
	"testing"

	"polaris/internal/ir"
	"polaris/internal/machine"
	"polaris/internal/parser"
)

func probeOf(t *testing.T, in *Interp) float64 {
	t.Helper()
	v, ok := in.Probe("OUT", "RESULT")
	if !ok {
		t.Fatalf("no COMMON /OUT/ RESULT")
	}
	return v
}

func TestNegativeStepDoall(t *testing.T) {
	src := `
      PROGRAM P
      REAL RESULT
      COMMON /OUT/ RESULT
      REAL A(50)
      INTEGER I
      DO I = 50, 1, -1
        A(I) = 1.0 * I
      END DO
      RESULT = A(1) + A(50)
      END
`
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	loop := ir.OuterLoops(prog.Main().Body)[0]
	loop.Par = &ir.ParInfo{Parallel: true}
	in := New(prog, machine.Default())
	in.Parallel = true
	in.Validate = true
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if got := probeOf(t, in); got != 51 {
		t.Errorf("result = %v, want 51", got)
	}
}

func TestFunctionCallInsideDoall(t *testing.T) {
	src := `
      PROGRAM P
      REAL RESULT
      COMMON /OUT/ RESULT
      REAL A(100)
      INTEGER I
      DO I = 1, 100
        A(I) = SQ(1.0 * I)
      END DO
      RESULT = A(10)
      END

      REAL FUNCTION SQ(X)
      REAL X
      SQ = X * X
      END
`
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	loop := ir.OuterLoops(prog.Main().Body)[0]
	loop.Par = &ir.ParInfo{Parallel: true}
	in := New(prog, machine.Default())
	in.Parallel = true
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if got := probeOf(t, in); got != 100 {
		t.Errorf("result = %v, want 100", got)
	}
}

func TestLRPDMultipleArrays(t *testing.T) {
	src := `
      PROGRAM P
      REAL RESULT
      COMMON /OUT/ RESULT
      REAL A(100), B(100)
      INTEGER IND(50), I
      DO I = 1, 50
        IND(I) = 2*I
      END DO
      DO I = 1, 100
        A(I) = 1.0
        B(I) = 2.0
      END DO
      DO I = 1, 50
        A(IND(I)) = A(IND(I)) + 0.5
        B(IND(I)) = B(IND(I)) * 1.5
      END DO
      RESULT = A(2) + B(4)
      END
`
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	loops := ir.OuterLoops(prog.Main().Body)
	loops[2].Par = &ir.ParInfo{LRPD: []string{"A", "B"}}
	in := New(prog, machine.Default())
	in.Parallel = true
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if in.LRPDPasses != 1 {
		t.Errorf("passes = %d", in.LRPDPasses)
	}
	if got := probeOf(t, in); got != 1.5+3.0 {
		t.Errorf("result = %v, want 4.5", got)
	}
}

func TestMoreIntrinsics(t *testing.T) {
	src := `
      PROGRAM P
      REAL RESULT
      COMMON /OUT/ RESULT
      REAL X
      X = EXP(0.0) + LOG(1.0) + SIN(0.0) + COS(0.0) + ATAN(0.0) + TAN(0.0)
      RESULT = X + NINT(2.6) + INT(3.9) + FLOAT(4) + SIGN(5.0, -1.0) + IABS(-6)
      END
`
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	in := New(prog, machine.Default())
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	// X = 1+0+0+1+0+0 = 2; + 3 + 3 + 4 - 5 + 6 = 13.
	if got := probeOf(t, in); got != 13 {
		t.Errorf("result = %v, want 13", got)
	}
}

func TestMixedTypePromotion(t *testing.T) {
	src := `
      PROGRAM P
      REAL RESULT
      COMMON /OUT/ RESULT
      INTEGER I
      REAL X
      I = 7
      X = I / 2 + I / 2.0
      RESULT = X
      END
`
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	in := New(prog, machine.Default())
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	// I/2 integer = 3; I/2.0 real = 3.5.
	if got := probeOf(t, in); got != 6.5 {
		t.Errorf("result = %v, want 6.5", got)
	}
}

func TestPowSemantics(t *testing.T) {
	src := `
      PROGRAM P
      REAL RESULT
      COMMON /OUT/ RESULT
      INTEGER K
      K = 2
      RESULT = K**10 + 2.0**0.5
      END
`
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	in := New(prog, machine.Default())
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	want := 1024 + math.Sqrt2
	if got := probeOf(t, in); math.Abs(got-want) > 1e-12 {
		t.Errorf("result = %v, want %v", got, want)
	}
}

func TestConcurrentLastValueAndHistogram(t *testing.T) {
	src := `
      PROGRAM P
      REAL RESULT
      COMMON /OUT/ RESULT
      REAL H(5), T
      INTEGER KEY(40), I
      DO I = 1, 5
        H(I) = 0.0
      END DO
      DO I = 1, 40
        KEY(I) = MOD(I, 5) + 1
      END DO
      DO I = 1, 40
        T = 0.5 * I
        H(KEY(I)) = H(KEY(I)) + T
      END DO
      RESULT = H(1) + H(2) + H(3) + H(4) + H(5) + T
      END
`
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	loops := ir.OuterLoops(prog.Main().Body)
	loops[2].Par = &ir.ParInfo{
		Parallel:   true,
		Private:    []string{"T"},
		LastValue:  []string{"T"},
		Reductions: []ir.Reduction{{Target: "H", Op: "+", Histogram: true}},
	}
	// Serial reference first.
	ref := New(parser.MustParse(src), machine.Default())
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	want := probeOf(t, ref)

	in := New(prog, machine.Default().WithProcessors(4))
	in.Parallel = true
	in.Concurrent = true
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if got := probeOf(t, in); math.Abs(got-want) > 1e-9 {
		t.Errorf("concurrent result = %v, want %v", got, want)
	}
}

func TestControlFlowEscapeRejected(t *testing.T) {
	src := `
      PROGRAM P
      REAL A(10)
      INTEGER I
      DO I = 1, 10
        A(I) = 1.0
        IF (I .EQ. 5) THEN
          RETURN
        END IF
      END DO
      END
`
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	loop := ir.OuterLoops(prog.Main().Body)[0]
	for _, par := range []*ir.ParInfo{{Parallel: true}, {LRPD: []string{"A"}}} {
		loop.Par = par
		in := New(prog, machine.Default())
		in.Parallel = true
		if err := in.Run(); err == nil || !strings.Contains(err.Error(), "escaping a parallel loop") {
			t.Errorf("RETURN escaping %+v: got %v, want the workers' rejection", par, err)
		}
	}
}

func TestWorkAndTimeMonotone(t *testing.T) {
	src := `
      PROGRAM P
      REAL A(1000)
      INTEGER I
      DO I = 1, 1000
        A(I) = SQRT(1.0 * I)
      END DO
      END
`
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	loop := ir.OuterLoops(prog.Main().Body)[0]
	loop.Par = &ir.ParInfo{Parallel: true}
	var prev int64 = 1 << 62
	for _, p := range []int{1, 2, 4, 8, 16} {
		in := New(prog, machine.Default().WithProcessors(p))
		in.Parallel = true
		if err := in.Run(); err != nil {
			t.Fatal(err)
		}
		if in.Time() > prev {
			t.Errorf("time increased with processors at p=%d", p)
		}
		prev = in.Time()
		if p == 1 && in.Time() < in.Work() {
			t.Errorf("p=1 time (%d) below work (%d): a 1-processor DOALL cannot beat serial", in.Time(), in.Work())
		}
	}
}

// A parallel loop inside a subroutine called from a serial caller loop
// must still execute as a DOALL (the inDoall guard only applies inside
// an active parallel region).
func TestParallelLoopInCalleeExecutes(t *testing.T) {
	src := `
      PROGRAM P
      REAL RESULT
      COMMON /OUT/ RESULT
      REAL A(200)
      INTEGER STEP, I
      DO I = 1, 200
        A(I) = 0.0
      END DO
      DO STEP = 1, 3
        CALL SWEEP(A)
      END DO
      RESULT = A(100)
      END

      SUBROUTINE SWEEP(A)
      REAL A(200)
      INTEGER I
      DO I = 1, 200
        A(I) = A(I) + 1.0
      END DO
      END
`
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	sweep := prog.Unit("SWEEP")
	ir.OuterLoops(sweep.Body)[0].Par = &ir.ParInfo{Parallel: true}
	in := New(prog, machine.Default())
	in.Parallel = true
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if in.ParallelLoopExecs != 3 {
		t.Errorf("parallel execs = %d, want 3", in.ParallelLoopExecs)
	}
	if got := probeOf(t, in); got != 3 {
		t.Errorf("result = %v, want 3", got)
	}
}

// Conversely, a parallel loop in a callee invoked from inside an active
// DOALL must run serially (nested parallelism is suppressed).
func TestNestedParallelSuppressedAcrossCall(t *testing.T) {
	src := `
      PROGRAM P
      REAL RESULT
      COMMON /OUT/ RESULT
      REAL A(40,40)
      INTEGER K, J
      DO K = 1, 40
        DO J = 1, 40
          A(J,K) = 0.0
        END DO
      END DO
      DO K = 1, 40
        CALL ROW(A, K)
      END DO
      RESULT = A(3,7)
      END

      SUBROUTINE ROW(A, K)
      REAL A(40,40)
      INTEGER K, J
      DO J = 1, 40
        A(J,K) = K + 0.5 * J
      END DO
      END
`
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	outer := ir.OuterLoops(prog.Main().Body)[1]
	outer.Par = &ir.ParInfo{Parallel: true}
	ir.OuterLoops(prog.Unit("ROW").Body)[0].Par = &ir.ParInfo{Parallel: true}
	in := New(prog, machine.Default())
	in.Parallel = true
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	// Only the outer K loop runs as DOALL: one parallel execution.
	if in.ParallelLoopExecs != 1 {
		t.Errorf("parallel execs = %d, want 1 (nested suppressed)", in.ParallelLoopExecs)
	}
	if got := probeOf(t, in); got != 8.5 {
		t.Errorf("result = %v, want 8.5", got)
	}
}

func TestCommonArraysSharedAndProbed(t *testing.T) {
	src := `
      PROGRAM P
      REAL RESULT
      COMMON /OUT/ RESULT
      REAL GRID(10)
      COMMON /STATE/ GRID
      CALL FILL
      RESULT = GRID(4)
      END

      SUBROUTINE FILL
      REAL GRID(10)
      COMMON /STATE/ GRID
      INTEGER I
      DO I = 1, 10
        GRID(I) = 3.0 * I
      END DO
      END
`
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	in := New(prog, machine.Default())
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if got := probeOf(t, in); got != 12 {
		t.Errorf("COMMON array not shared: %v", got)
	}
	data, ok := in.ProbeArray("STATE", "GRID")
	if !ok || len(data) != 10 || data[0] != 3 || data[9] != 30 {
		t.Errorf("ProbeArray = %v, %v", data, ok)
	}
	if _, ok := in.ProbeArray("NOPE", "GRID"); ok {
		t.Errorf("ProbeArray found absent block")
	}
	if _, ok := in.ProbeArray("STATE", "NOPE"); ok {
		t.Errorf("ProbeArray found absent array")
	}
}

func TestAssumedSizeFormalReshape(t *testing.T) {
	src := `
      PROGRAM P
      REAL RESULT
      COMMON /OUT/ RESULT
      REAL X(24)
      INTEGER I
      DO I = 1, 24
        X(I) = 1.0 * I
      END DO
      CALL LAST(X, 4)
      RESULT = X(24)
      END

      SUBROUTINE LAST(M, NR)
      INTEGER NR
      REAL M(NR, *)
      M(4, 6) = -5.0
      END
`
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	in := New(prog, machine.Default())
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	// M(4,6) with NR=4 -> flat (4-1) + (6-1)*4 = 23 -> X(24).
	if got := probeOf(t, in); got != -5 {
		t.Errorf("assumed-size reshape wrong: %v", got)
	}
}

func TestIntegerArrayWindow(t *testing.T) {
	src := `
      PROGRAM P
      REAL RESULT
      COMMON /OUT/ RESULT
      INTEGER IDX(20), I
      DO I = 1, 20
        IDX(I) = 0
      END DO
      CALL MARK(IDX(11), 5)
      RESULT = IDX(11) + IDX(15) + IDX(10)
      END

      SUBROUTINE MARK(W, N)
      INTEGER N, I, W(N)
      DO I = 1, N
        W(I) = 1
      END DO
      END
`
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	in := New(prog, machine.Default())
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if got := probeOf(t, in); got != 2 {
		t.Errorf("integer window wrong: %v", got)
	}
}
