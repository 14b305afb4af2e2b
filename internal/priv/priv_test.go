package priv

import (
	"testing"

	"polaris/internal/deps"
	"polaris/internal/gsa"
	"polaris/internal/ir"
	"polaris/internal/parser"
	"polaris/internal/rng"
	"polaris/internal/symbolic"
)

func analyzeFirstLoop(t *testing.T, src string) (*ir.ProgramUnit, *Result) {
	t.Helper()
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	u := prog.Main()
	loop := ir.OuterLoops(u.Body)[0]
	return u, analyze(u, loop)
}

// analyze is Analyze on a nest and a leaf table built for the one call.
func analyze(u *ir.ProgramUnit, loop *ir.DoStmt) *Result {
	ra := rng.New(u, symbolic.NewLeaves())
	return Analyze(u, ra, deps.NewTester(u, ra).NewNest(loop))
}

func has(list []string, name string) bool {
	for _, n := range list {
		if n == name {
			return true
		}
	}
	return false
}

func TestScalarTemporaryPrivate(t *testing.T) {
	_, res := analyzeFirstLoop(t, `
      SUBROUTINE S(N, A, B)
      INTEGER N, I
      REAL A(N), B(N), T
      DO I = 1, N
        T = B(I) * 2.0
        A(I) = T + 1.0
      END DO
      END
`)
	if !has(res.PrivateScalars, "T") {
		t.Errorf("T not privatized: %+v", res)
	}
	if has(res.LastValue, "T") {
		t.Errorf("dead T needs last value?")
	}
}

func TestScalarUpwardExposedBlocked(t *testing.T) {
	_, res := analyzeFirstLoop(t, `
      SUBROUTINE S(N, A)
      INTEGER N, I
      REAL A(N), T
      T = 0.0
      DO I = 1, N
        A(I) = T
        T = A(I) * 2.0
      END DO
      END
`)
	if has(res.PrivateScalars, "T") {
		t.Errorf("upward-exposed T wrongly privatized")
	}
	if _, blocked := res.Blocked["T"]; !blocked {
		t.Errorf("T not reported blocked")
	}
}

func TestScalarLiveOutLastValue(t *testing.T) {
	_, res := analyzeFirstLoop(t, `
      SUBROUTINE S(N, A, T)
      INTEGER N, I
      REAL A(N), T
      DO I = 1, N
        T = A(I) * 2.0
        A(I) = T
      END DO
      END
`)
	// T is a formal: live out; definitely assigned each iteration.
	if !has(res.PrivateScalars, "T") || !has(res.LastValue, "T") {
		t.Errorf("live-out T not lastprivate: %+v", res)
	}
}

func TestScalarConditionalLiveOutBlocked(t *testing.T) {
	_, res := analyzeFirstLoop(t, `
      SUBROUTINE S(N, A, T)
      INTEGER N, I
      REAL A(N), T
      DO I = 1, N
        IF (A(I) .GT. 0.0) THEN
          T = A(I)
        END IF
        A(I) = 1.0
      END DO
      END
`)
	if has(res.PrivateScalars, "T") {
		t.Errorf("conditionally-assigned live-out T wrongly privatized")
	}
}

func TestConditionalDeadScalarPrivate(t *testing.T) {
	_, res := analyzeFirstLoop(t, `
      SUBROUTINE S(N, A)
      INTEGER N, I
      REAL A(N), T
      DO I = 1, N
        IF (A(I) .GT. 0.0) THEN
          T = A(I) * 3.0
          A(I) = T
        END IF
      END DO
      END
`)
	// T's use is dominated by its def (same branch); T dead after loop.
	if !has(res.PrivateScalars, "T") {
		t.Errorf("branch-local T not privatized: %+v", res.Blocked)
	}
}

func TestInnerIndexAlwaysPrivate(t *testing.T) {
	_, res := analyzeFirstLoop(t, `
      SUBROUTINE S(N, A)
      INTEGER N, I, J
      REAL A(N,N)
      DO I = 1, N
        DO J = 1, N
          A(J,I) = 0.0
        END DO
      END DO
      END
`)
	if !has(res.PrivateScalars, "J") {
		t.Errorf("inner index J not private")
	}
}

func TestArrayWorkspacePrivate(t *testing.T) {
	_, res := analyzeFirstLoop(t, `
      SUBROUTINE S(N, B, C)
      INTEGER N, I, J, K
      REAL B(N,N), C(N,N), W(1000)
      DO I = 1, N
        DO J = 1, N
          W(J) = B(J,I) * 2.0
        END DO
        DO K = 1, N
          C(K,I) = W(K) + 1.0
        END DO
      END DO
      END
`)
	if !has(res.PrivateArrays, "W") {
		t.Errorf("work array W not privatized: blocked=%v", res.Blocked)
	}
}

// The paper's Figure 4: proving the use region A(1:M*P) inside the
// definition region A(1:MP) needs the GSA backward substitution
// MP -> M*P.
func TestFigure4GSARegionProof(t *testing.T) {
	_, res := analyzeFirstLoop(t, `
      SUBROUTINE S(M, P, B, C)
      INTEGER M, P, MP, I, J, K
      REAL A(10000), B(10000), C(10000)
      MP = M * P
      DO I = 1, 100
        DO J = 1, MP
          A(J) = B(J) + 1.0
        END DO
        DO K = 1, M*P
          C(K) = A(K) * 2.0
        END DO
      END DO
      END
`)
	if !has(res.PrivateArrays, "A") {
		t.Errorf("Figure 4 array A not privatized: blocked=%v", res.Blocked)
	}
}

func TestRegionNotCoveredBlocked(t *testing.T) {
	_, res := analyzeFirstLoop(t, `
      SUBROUTINE S(N, B, C)
      INTEGER N, I, J, K
      REAL B(N,N), C(N,N), W(1000)
      DO I = 1, N
        DO J = 2, N
          W(J) = B(J,I)
        END DO
        DO K = 1, N
          C(K,I) = W(K)
        END DO
      END DO
      END
`)
	// W(1) is read but never written in the iteration.
	if has(res.PrivateArrays, "W") {
		t.Errorf("under-covered W wrongly privatized")
	}
}

func TestLiveOutArrayBlocked(t *testing.T) {
	_, res := analyzeFirstLoop(t, `
      SUBROUTINE S(N, B, W)
      INTEGER N, I, J
      REAL B(N,N), W(N)
      DO I = 1, N
        DO J = 1, N
          W(J) = B(J,I)
        END DO
      END DO
      END
`)
	// W is a formal: visible after the loop.
	if has(res.PrivateArrays, "W") {
		t.Errorf("live-out W wrongly privatized")
	}
}

func TestStridedWriteNotDense(t *testing.T) {
	_, res := analyzeFirstLoop(t, `
      SUBROUTINE S(N, B, C)
      INTEGER N, I, J, K
      REAL B(N,N), C(N,N), W(1000)
      DO I = 1, N
        DO J = 1, N
          W(2*J) = B(J,I)
        END DO
        DO K = 1, N
          C(K,I) = W(K)
        END DO
      END DO
      END
`)
	if has(res.PrivateArrays, "W") {
		t.Errorf("strided (non-dense) write wrongly treated as covering")
	}
}

func TestReadBeforeWriteSameSubscriptOK(t *testing.T) {
	_, res := analyzeFirstLoop(t, `
      SUBROUTINE S(N, B)
      INTEGER N, I, J
      REAL B(N,N), W(1000)
      DO I = 1, N
        DO J = 1, N
          W(J) = B(J,I)
          B(J,I) = W(J) + 1.0
        END DO
      END DO
      END
`)
	// W(J) read after W(J) write in the same inner iteration: private.
	if !has(res.PrivateArrays, "W") {
		t.Errorf("same-subscript read-after-write not privatized: %v", res.Blocked)
	}
}

func TestForwardReadInSameLoopBlocked(t *testing.T) {
	_, res := analyzeFirstLoop(t, `
      SUBROUTINE S(N, B, C)
      INTEGER N, I, J
      REAL B(N,N), C(N,N), W(1000)
      DO I = 1, N
        DO J = 1, N
          W(J) = B(J,I)
          C(J,I) = W(N-J+1)
        END DO
      END DO
      END
`)
	// W(N-J+1) reads elements written by LATER inner iterations:
	// not dominated by a same-iteration def; must not privatize.
	if has(res.PrivateArrays, "W") {
		t.Errorf("forward-reaching read wrongly privatized")
	}
}

// The paper's Figure 5 (BDNA): privatization of R, P, M, IND and A,
// requiring the monotonic-variable analysis for P and the
// statically-assigned-index-array analysis for A(IND(L)).
func TestFigure5BDNA(t *testing.T) {
	_, res := analyzeFirstLoop(t, `
      SUBROUTINE BDNA(N, X, Y, Z, W, RCUTS)
      INTEGER N, I, J, K, L, P, M
      REAL X(N,N), Y(N,N), A(1000), R, W, Z, RCUTS
      INTEGER IND(1000)
      DO I = 2, N
        DO J = 1, I - 1
          IND(J) = 0
          A(J) = X(I,J) - Y(I,J)
          R = A(J) + W
          IF (R .LT. RCUTS) IND(J) = 1
        END DO
        P = 0
        DO K = 1, I - 1
          IF (IND(K) .NE. 0) THEN
            P = P + 1
            IND(P) = K
          END IF
        END DO
        DO L = 1, P
          M = IND(L)
          X(I,L) = A(M) + Z
        END DO
      END DO
      END
`)
	for _, want := range []string{"R", "P", "M"} {
		if !has(res.PrivateScalars, want) {
			t.Errorf("scalar %s not privatized (blocked: %v)", want, res.Blocked)
		}
	}
	for _, want := range []string{"IND", "A"} {
		if !has(res.PrivateArrays, want) {
			t.Errorf("array %s not privatized (blocked: %v)", want, res.Blocked)
		}
	}
}

func TestMonotonicBoundPattern(t *testing.T) {
	prog, err := parser.ParseProgram(`
      SUBROUTINE S(N, IND, OUT)
      INTEGER N, I, K, P, IND(N), OUT(N)
      DO I = 1, N
        P = 0
        DO K = 1, N
          IF (IND(K) .GT. 0) THEN
            P = P + 1
          END IF
        END DO
        OUT(I) = P
      END DO
      END
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	u := prog.Main()
	loop := ir.OuterLoops(u.Body)[0]
	ra := rng.New(u, symbolic.NewLeaves())
	a := &analyzer{unit: u, ranges: ra, gsa: gsa.New(u, ra.Leaves()), nest: deps.NewTester(u, ra).NewNest(loop), loop: loop}
	use := loop.Body.Stmts[2]
	b, ok := a.monotonicBound("P", use)
	if !ok {
		t.Fatalf("monotonic pattern not recognized")
	}
	if b.Lo.String() != "0" {
		t.Errorf("lo = %s, want 0", b.Lo)
	}
	if b.Hi.String() != "N^1" {
		t.Errorf("hi = %s, want N", b.Hi)
	}
}

func TestArrayPassedToCallBlocked(t *testing.T) {
	_, res := analyzeFirstLoop(t, `
      PROGRAM P1
      INTEGER I
      REAL W(100)
      DO I = 1, 10
        W(1) = 1.0
        CALL F(W)
      END DO
      END

      SUBROUTINE F(W)
      REAL W(100)
      W(2) = W(1)
      END
`)
	if has(res.PrivateArrays, "W") {
		t.Errorf("array passed to CALL wrongly privatized")
	}
}
