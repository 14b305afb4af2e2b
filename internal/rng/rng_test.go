package rng

import (
	"fmt"
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

func TestParameterConstants(t *testing.T) {
	u := mainUnit(t, `
      PROGRAM P
      INTEGER N, M
      PARAMETER (N=10, M=2*N)
      REAL A(M)
      A(1) = 0.0
      END
`)
	a := New(u, symbolic.NewLeaves())
	if c := a.Consts()["N"]; c == nil || !symbolic.Equal(c, symbolic.Int(10)) {
		t.Errorf("N = %v", c)
	}
	if c := a.Consts()["M"]; c == nil || !symbolic.Equal(c, symbolic.Int(20)) {
		t.Errorf("M = %v, want 20", c)
	}
}

func TestConstantPropagation(t *testing.T) {
	u := mainUnit(t, `
      PROGRAM P
      INTEGER N, M, K, J
      N = 10
      M = N * 3
      K = K + 1
      DO J = 1, 2
        L = 5
      END DO
      END
`)
	a := New(u, symbolic.NewLeaves())
	if c := a.Consts()["N"]; c == nil || !symbolic.Equal(c, symbolic.Int(10)) {
		t.Errorf("N = %v", c)
	}
	if c := a.Consts()["M"]; c == nil || !symbolic.Equal(c, symbolic.Int(30)) {
		t.Errorf("M = %v", c)
	}
	if a.Consts()["K"] != nil {
		t.Errorf("self-referencing K treated as constant")
	}
	if a.Consts()["L"] != nil {
		t.Errorf("conditionally assigned L treated as constant")
	}
	if a.Consts()["J"] != nil {
		t.Errorf("loop index J treated as constant")
	}
}

func TestCallDisqualifiesConstant(t *testing.T) {
	u := mainUnit(t, `
      PROGRAM P
      INTEGER N
      N = 10
      CALL TWEAK(N)
      END

      SUBROUTINE TWEAK(N)
      INTEGER N
      N = N + 1
      END
`)
	a := New(u, symbolic.NewLeaves())
	if a.Consts()["N"] != nil {
		t.Errorf("N passed to CALL treated as constant")
	}
}

func TestLoopRange(t *testing.T) {
	u := mainUnit(t, `
      PROGRAM P
      INTEGER I, J, N
      PARAMETER (N=10)
      REAL A(100)
      DO I = 1, N
        A(I) = 0.0
      END DO
      DO J = N, 1, -1
        A(J) = 1.0
      END DO
      END
`)
	a := New(u, symbolic.NewLeaves())
	loops := ir.Loops(u.Body)
	lo, hi, ok := a.LoopRange(loops[0])
	if !ok || !symbolic.Equal(lo, symbolic.Int(1)) || !symbolic.Equal(hi, symbolic.Int(10)) {
		t.Errorf("range of I = [%s, %s]", lo, hi)
	}
	// Negative step: normalized box.
	lo2, hi2, ok := a.LoopRange(loops[1])
	if !ok || !symbolic.Equal(lo2, symbolic.Int(1)) || !symbolic.Equal(hi2, symbolic.Int(10)) {
		t.Errorf("range of J = [%s, %s]", lo2, hi2)
	}
}

func TestGuardFacts(t *testing.T) {
	u := mainUnit(t, `
      SUBROUTINE S(N, A)
      INTEGER N, I
      REAL A(N)
      IF (N .GE. 1) THEN
        DO I = 1, N
          A(I) = 0.0
        END DO
      END IF
      END
`)
	a := New(u, symbolic.NewLeaves())
	loop := ir.Loops(u.Body)[0]
	target := loop.Body.Stmts[0]
	env := a.EnvForStmt(target)
	// Inside the guard and the loop: N >= 1, I in [1, N].
	if !env.ProveGE(symbolic.Sub(symbolic.Var("N"), symbolic.Int(1))) {
		t.Errorf("N >= 1 not provable inside guard")
	}
	if !env.ProveGE(symbolic.Sub(symbolic.Var("N"), symbolic.Var("I"))) {
		t.Errorf("I <= N not provable inside loop")
	}
	if !env.ProveGT(symbolic.Var("I")) {
		t.Errorf("I >= 1 not provable inside loop")
	}
}

func TestElseNegatesGuard(t *testing.T) {
	u := mainUnit(t, `
      SUBROUTINE S(N)
      INTEGER N, X
      IF (N .GT. 5) THEN
        X = 1
      ELSE
        X = 2
      END IF
      END
`)
	a := New(u, symbolic.NewLeaves())
	ifStmt := u.Body.Stmts[0].(*ir.IfStmt)
	thenEnv := a.EnvForStmt(ifStmt.Then.Stmts[0])
	elseEnv := a.EnvForStmt(ifStmt.Else.Stmts[0])
	// THEN: N >= 6; ELSE: N <= 5.
	if !thenEnv.ProveGE(symbolic.Sub(symbolic.Var("N"), symbolic.Int(6))) {
		t.Errorf("THEN branch fact missing")
	}
	if !elseEnv.ProveGE(symbolic.Sub(symbolic.Int(5), symbolic.Var("N"))) {
		t.Errorf("ELSE branch fact missing")
	}
}

func TestTripCountFact(t *testing.T) {
	u := mainUnit(t, `
      SUBROUTINE S(N, A)
      INTEGER N, I
      REAL A(N)
      DO I = 1, N
        A(I) = 0.0
      END DO
      END
`)
	a := New(u, symbolic.NewLeaves())
	loop := ir.Loops(u.Body)[0]
	env := a.EnvForStmt(loop.Body.Stmts[0])
	// Inside the body the loop executed at least once: N - 1 >= 0.
	if !env.ProveGE(symbolic.Sub(symbolic.Var("N"), symbolic.Int(1))) {
		t.Errorf("trip-count fact N >= 1 missing")
	}
}

func TestRealGuardProducesNoFacts(t *testing.T) {
	u := mainUnit(t, `
      SUBROUTINE S(X)
      REAL X
      INTEGER K
      IF (X .GT. 0.5) THEN
        K = 1
      END IF
      END
`)
	a := New(u, symbolic.NewLeaves())
	ifStmt := u.Body.Stmts[0].(*ir.IfStmt)
	facts := a.Facts(ifStmt.Then.Stmts[0])
	if len(facts) != 0 {
		t.Errorf("real-typed guard produced facts: %v", facts)
	}
}

func TestAndGuard(t *testing.T) {
	u := mainUnit(t, `
      SUBROUTINE S(N, M)
      INTEGER N, M, X
      IF (N .GE. 1 .AND. M .GE. N) THEN
        X = 1
      END IF
      END
`)
	a := New(u, symbolic.NewLeaves())
	ifStmt := u.Body.Stmts[0].(*ir.IfStmt)
	env := a.EnvForStmt(ifStmt.Then.Stmts[0])
	if !env.ProveGE(symbolic.Sub(symbolic.Var("M"), symbolic.Int(1))) {
		t.Errorf("M >= N >= 1 chain not provable")
	}
}

func TestAddFactGEMergesTighter(t *testing.T) {
	a := New(mainUnit(t, "      PROGRAM P\n      END\n"), symbolic.NewLeaves())
	env := symbolic.NewEnv()
	a.AddFactGE(env, symbolic.Sub(symbolic.Var("N"), symbolic.Int(1))) // N >= 1
	a.AddFactGE(env, symbolic.Sub(symbolic.Var("N"), symbolic.Int(5))) // N >= 5 (tighter)
	a.AddFactGE(env, symbolic.Sub(symbolic.Var("N"), symbolic.Int(3))) // looser, ignored
	b, ok := env.Lookup("N")
	if !ok || b.Lo == nil {
		t.Fatalf("no bound recorded")
	}
	if !symbolic.Equal(b.Lo, symbolic.Int(5)) {
		t.Errorf("lo = %s, want 5", b.Lo)
	}
}

func TestEnvOrderingInnermostFirst(t *testing.T) {
	u := mainUnit(t, `
      SUBROUTINE S(N, A)
      INTEGER N, I, J
      REAL A(N,N)
      DO I = 1, N
        DO J = 1, I
          A(I,J) = 0.0
        END DO
      END DO
      END
`)
	a := New(u, symbolic.NewLeaves())
	inner := ir.Loops(u.Body)[1]
	env := a.EnvForStmt(inner.Body.Stmts[0])
	names := env.Names()
	if len(names) < 2 || names[0] != "J" || names[1] != "I" {
		t.Errorf("env order = %v, want J before I", names)
	}
	// Triangular fact usable: J <= I <= N.
	if !env.ProveGE(symbolic.Sub(symbolic.Var("N"), symbolic.Var("J"))) {
		t.Errorf("J <= N not provable through triangular chain")
	}
}

// refFacts is the per-statement construction Facts replaced: every
// enclosing loop's and guard's facts built afresh for the one target.
func refFacts(a *Analyzer, target ir.Stmt) []*symbolic.Expr {
	var facts []*symbolic.Expr
	if path, found := a.pathTo(target); found {
		for _, pe := range path {
			switch {
			case pe.do != nil:
				facts = append(facts, a.loopFacts(pe.do)...)
			case pe.ifStmt != nil:
				facts = append(facts, a.condFacts(pe.ifStmt.Cond, pe.inElse)...)
			}
		}
	}
	return facts
}

// TestFactsSharedAlongPath: statements under one loop, and under one
// branch of one IF, carry the very same fact objects for what encloses
// them both, so the per-fact bound memo decomposes each distinct fact
// once however many statements ask; the facts themselves read as the
// per-statement construction built them.
func TestFactsSharedAlongPath(t *testing.T) {
	u := mainUnit(t, `
      PROGRAM P
      INTEGER I, J, N, M
      REAL A(100), B(100)
      DO I = 1, N
        A(I) = 0.0
        B(I) = 1.0
        IF (M .GT. I .AND. N .LE. 50) THEN
          A(I) = 2.0
          B(I) = 3.0
        ELSE
          A(I) = 4.0
          DO J = I, M
            B(J) = 5.0
          END DO
        END IF
      END DO
      END
`)
	a := New(u, symbolic.NewLeaves())
	var assigns []ir.Stmt
	ir.WalkStmts(u.Body, func(s ir.Stmt) bool {
		if _, ok := s.(*ir.AssignStmt); ok {
			assigns = append(assigns, s)
		}
		return true
	})
	if len(assigns) != 6 {
		t.Fatalf("found %d assignments, want 6", len(assigns))
	}
	distinct := map[*symbolic.Expr]bool{}
	for _, s := range assigns {
		got, want := a.Facts(s), refFacts(a, s)
		if len(got) != len(want) {
			t.Fatalf("%s: %d facts, reference %d", s, len(got), len(want))
		}
		for i := range got {
			if got[i].String() != want[i].String() {
				t.Errorf("%s: fact %d is %v, reference %v", s, i, got[i], want[i])
			}
			distinct[got[i]] = true
		}
	}
	// 3 for DO I; 2 for the THEN branch (.AND. of two relations), 1 for
	// the ELSE (the negated .AND. yields none, but DO J gives 3).
	samePrefix := func(x, y []*symbolic.Expr, n int) bool {
		if len(x) < n || len(y) < n {
			return false
		}
		for i := 0; i < n; i++ {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	body0, body1 := a.Facts(assigns[0]), a.Facts(assigns[1])
	then0, then1 := a.Facts(assigns[2]), a.Facts(assigns[3])
	else0, inner := a.Facts(assigns[4]), a.Facts(assigns[5])
	if len(body0) != 3 || !samePrefix(body0, body1, 3) {
		t.Errorf("two statements of one loop body do not share the loop's facts: %v vs %v", body0, body1)
	}
	if len(then0) != 5 || !samePrefix(then0, then1, 5) {
		t.Errorf("two statements of one IF branch do not share loop and guard facts: %v vs %v", then0, then1)
	}
	if !samePrefix(body0, then0, 3) || !samePrefix(body0, else0, 3) || !samePrefix(else0, inner, len(else0)) {
		t.Errorf("nested statements do not share the enclosing path's facts")
	}
	if len(distinct) != 3+2+3 {
		t.Errorf("%d distinct fact objects, want 8 (DO I 3, THEN guard 2, DO J 3)", len(distinct))
	}
	// The bound memo is keyed by fact pointer: folding every statement's
	// facts into an environment decomposes each distinct fact once.
	before := len(a.factBounds)
	for _, s := range assigns {
		env := symbolic.NewEnv()
		for _, f := range a.Facts(s) {
			a.AddFactGE(env, f)
		}
	}
	if grew := len(a.factBounds) - before; grew != len(distinct) {
		t.Errorf("factBounds grew by %d over %d distinct facts", grew, len(distinct))
	}
}

// TestReleaseCachesKeepsConstants: what crosses a pass barrier is the
// constant table, by pointer, and an Analyzer that answers as it did —
// the per-statement caches start over, they do not go stale.
func TestReleaseCachesKeepsConstants(t *testing.T) {
	u := mainUnit(t, `
      PROGRAM P
      INTEGER N, M, I
      PARAMETER (N=10)
      REAL A(100)
      M = N*2
      DO I = 1, M
        IF (I .GT. 3) THEN
          A(I) = 0.0
        END IF
      END DO
      END
`)
	a := New(u, symbolic.NewLeaves())
	loop := ir.Loops(u.Body)[0]
	target := loop.Body.Stmts[0].(*ir.IfStmt).Then.Stmts[0]
	render := func() string {
		env, out := a.EnvForStmt(target), ""
		for _, name := range env.Names() {
			b, _ := env.Lookup(name)
			out += fmt.Sprintf("%s in [%v, %v] ", name, b.Lo, b.Hi)
		}
		for _, f := range a.Facts(target) {
			out += " " + f.String()
		}
		lo, hi, ok := a.LoopRange(loop)
		return out + " " + lo.String() + ".." + hi.String() + " " + a.Conv(loop.Limit).E.String() + map[bool]string{true: " ok"}[ok]
	}
	before, m := render(), a.Consts()["M"]
	if len(a.facts) == 0 || len(a.loopRanges) == 0 || len(a.factBounds) == 0 || len(a.elemFacts) == 0 {
		t.Fatal("the queries filled no cache")
	}
	a.ReleaseCaches()
	if len(a.facts)+len(a.loopRanges)+len(a.factBounds)+len(a.elemFacts) != 0 {
		t.Error("caches survive ReleaseCaches")
	}
	if a.Consts()["M"] != m || m == nil || !symbolic.Equal(m, symbolic.Int(20)) {
		t.Errorf("M = %v after release, was %v", a.Consts()["M"], m)
	}
	if after := render(); after != before {
		t.Errorf("after release the analyzer answers\n%s\nbefore it answered\n%s", after, before)
	}
}
