package gsa

import (
	"testing"

	"polaris/internal/ir"
	"polaris/internal/parser"
	"polaris/internal/symbolic"
)

func mainUnit(t *testing.T, src string) *ir.ProgramUnit {
	t.Helper()
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog.Main()
}

func TestStraightLineSubstitution(t *testing.T) {
	u := mainUnit(t, `
      SUBROUTINE S(M, P)
      INTEGER M, P, MP, X
      MP = M * P
      X = MP + 1
      END
`)
	g := New(u, symbolic.NewLeaves())
	xAssign := u.Body.Stmts[1]
	v := g.ValueBefore(xAssign, "MP", DefaultDepth)
	want := symbolic.Mul(symbolic.Var("M"), symbolic.Var("P"))
	if !symbolic.Equal(v, want) {
		t.Errorf("MP resolves to %s, want M*P", v)
	}
}

// The exact Figure 4 proof from the paper: loop J defines A(1:MP),
// loop K uses A(1:M*P); privatization needs MP >= M*P, proven by
// backward substitution MP -> M*P.
func TestFigure4Proof(t *testing.T) {
	u := mainUnit(t, `
      SUBROUTINE S(M, P, B)
      INTEGER M, P, MP, I, J, K
      REAL A(1000), B(1000)
      MP = M * P
      DO I = 1, 100
        DO J = 1, MP
          A(J) = B(J)
        END DO
        DO K = 1, M*P
          B(K) = A(K) + 1.0
        END DO
      END DO
      END
`)
	g := New(u, symbolic.NewLeaves())
	outer := ir.Loops(u.Body)[0]
	// Resolve MP at the outer loop and prove MP - M*P >= 0.
	mp := g.ValueBefore(outer, "MP", DefaultDepth)
	diff := symbolic.Sub(mp, symbolic.Mul(symbolic.Var("M"), symbolic.Var("P")))
	env := symbolic.NewEnv()
	if !env.ProveGE(diff) || !env.ProveGE(symbolic.Neg(diff)) {
		t.Errorf("MP == M*P not proven: MP resolves to %s", mp)
	}
}

func TestChainedSubstitution(t *testing.T) {
	u := mainUnit(t, `
      SUBROUTINE S(N)
      INTEGER N, A, B, C
      A = N + 1
      B = A * 2
      C = B - N
      END
`)
	g := New(u, symbolic.NewLeaves())
	cAssign := u.Body.Stmts[2]
	v := g.ValueBefore(cAssign, "B", DefaultDepth)
	// B = (N+1)*2 = 2N+2
	want := symbolic.Add(symbolic.Mul(symbolic.Int(2), symbolic.Var("N")), symbolic.Int(2))
	if !symbolic.Equal(v, want) {
		t.Errorf("B = %s, want 2N+2", v)
	}
}

func TestRedefinitionUsesLatest(t *testing.T) {
	u := mainUnit(t, `
      SUBROUTINE S(N)
      INTEGER N, X, Y
      X = 1
      X = N
      Y = X
      END
`)
	g := New(u, symbolic.NewLeaves())
	yAssign := u.Body.Stmts[2]
	v := g.ValueBefore(yAssign, "X", DefaultDepth)
	if !symbolic.Equal(v, symbolic.Var("N")) {
		t.Errorf("X = %s, want N", v)
	}
}

func TestGammaGateDifferentValues(t *testing.T) {
	u := mainUnit(t, `
      SUBROUTINE S(N)
      INTEGER N, X, Y
      IF (N .GT. 0) THEN
        X = 1
      ELSE
        X = 2
      END IF
      Y = X
      END
`)
	g := New(u, symbolic.NewLeaves())
	yAssign := u.Body.Stmts[1]
	v := g.ValueBefore(yAssign, "X", DefaultDepth)
	if !v.HasOpaque() {
		t.Errorf("conditional X resolved to %s, want gamma gate", v)
	}
	// Equal gates cancel: querying twice gives an identical atom.
	v2 := g.ValueBefore(yAssign, "X", DefaultDepth)
	if !symbolic.Equal(v, v2) {
		t.Errorf("gate identity unstable: %s vs %s", v, v2)
	}
}

func TestGammaGateEqualValuesMerge(t *testing.T) {
	u := mainUnit(t, `
      SUBROUTINE S(N)
      INTEGER N, X, Y
      IF (N .GT. 0) THEN
        X = 7
      ELSE
        X = 7
      END IF
      Y = X
      END
`)
	g := New(u, symbolic.NewLeaves())
	yAssign := u.Body.Stmts[1]
	v := g.ValueBefore(yAssign, "X", DefaultDepth)
	if !symbolic.Equal(v, symbolic.Int(7)) {
		t.Errorf("equal-arm gamma did not merge: %s", v)
	}
}

func TestGammaFallThrough(t *testing.T) {
	u := mainUnit(t, `
      SUBROUTINE S(N)
      INTEGER N, X, Y
      X = 5
      IF (N .GT. 0) THEN
        X = 5
      END IF
      Y = X
      END
`)
	g := New(u, symbolic.NewLeaves())
	yAssign := u.Body.Stmts[2]
	// Both paths produce 5.
	v := g.ValueBefore(yAssign, "X", DefaultDepth)
	if !symbolic.Equal(v, symbolic.Int(5)) {
		t.Errorf("fall-through gamma did not merge: %s", v)
	}
}

func TestMuGateForLoopCarried(t *testing.T) {
	u := mainUnit(t, `
      SUBROUTINE S(N)
      INTEGER N, K, Y, I
      K = 0
      DO I = 1, N
        K = K + 1
      END DO
      Y = K
      END
`)
	g := New(u, symbolic.NewLeaves())
	yAssign := u.Body.Stmts[2]
	v := g.ValueBefore(yAssign, "K", DefaultDepth)
	if !v.HasOpaque() {
		t.Errorf("loop-modified K resolved to %s, want mu gate", v)
	}
	// Inside the loop, K before the increment is also gated (previous
	// iteration).
	loop := u.Body.Stmts[1].(*ir.DoStmt)
	inc := loop.Body.Stmts[0]
	vin := g.ValueBefore(inc, "K", DefaultDepth)
	if !vin.HasOpaque() {
		t.Errorf("K at loop top resolved to %s, want mu gate", vin)
	}
}

func TestLoopIndexIsSymbolic(t *testing.T) {
	u := mainUnit(t, `
      SUBROUTINE S(N, A)
      INTEGER N, I
      REAL A(N)
      DO I = 1, N
        A(I) = 0.0
      END DO
      END
`)
	g := New(u, symbolic.NewLeaves())
	loop := ir.Loops(u.Body)[0]
	target := loop.Body.Stmts[0]
	v := g.ValueBefore(target, "I", DefaultDepth)
	if !symbolic.Equal(v, symbolic.Var("I")) {
		t.Errorf("loop index = %s, want I", v)
	}
}

func TestCallGates(t *testing.T) {
	u := mainUnit(t, `
      SUBROUTINE S(N)
      INTEGER N, X, Y
      X = 3
      CALL MANGLE(X)
      Y = X
      END

      SUBROUTINE MANGLE(X)
      INTEGER X
      X = X * 2
      END
`)
	g := New(u, symbolic.NewLeaves())
	yAssign := u.Body.Stmts[2]
	v := g.ValueBefore(yAssign, "X", DefaultDepth)
	if !v.HasOpaque() {
		t.Errorf("X after CALL resolved to %s, want call gate", v)
	}
}

func TestFormalIsFree(t *testing.T) {
	u := mainUnit(t, `
      SUBROUTINE S(N)
      INTEGER N, Y
      Y = N
      END
`)
	g := New(u, symbolic.NewLeaves())
	v := g.ValueBefore(u.Body.Stmts[0], "N", DefaultDepth)
	if !symbolic.Equal(v, symbolic.Var("N")) {
		t.Errorf("formal N = %s", v)
	}
}

func TestDepthLimitGates(t *testing.T) {
	u := mainUnit(t, `
      SUBROUTINE S(N)
      INTEGER N, A, B, C, D, Y
      A = N
      B = A
      C = B
      D = C
      Y = D
      END
`)
	g := New(u, symbolic.NewLeaves())
	yAssign := u.Body.Stmts[4]
	// Plenty of depth: resolves to N.
	if v := g.ValueBefore(yAssign, "D", DefaultDepth); !symbolic.Equal(v, symbolic.Var("N")) {
		t.Errorf("D = %s, want N", v)
	}
	// Depth 1: cannot reach through the chain; must gate, not loop.
	v := g.ValueBefore(yAssign, "D", 1)
	if !v.HasOpaque() {
		t.Errorf("depth-limited resolution = %s, want gate", v)
	}
}

func TestResolverLeavesFreeNames(t *testing.T) {
	u := mainUnit(t, `
      SUBROUTINE S(M, P)
      INTEGER M, P, MP, Y
      MP = M * P
      Y = MP
      END
`)
	g := New(u, symbolic.NewLeaves())
	yAssign := u.Body.Stmts[1]
	res := g.Resolver(yAssign, DefaultDepth)
	if res("M") != nil {
		t.Errorf("free formal resolved to non-nil")
	}
	if v := res("MP"); v == nil || !symbolic.Equal(v, symbolic.Mul(symbolic.Var("M"), symbolic.Var("P"))) {
		t.Errorf("MP resolver = %v", v)
	}
}
