package priv

import (
	"testing"

	"polaris/internal/ir"
	"polaris/internal/parser"
)

// The graph and dominator tree of cfg_dominance_test.go, on the shapes
// the cross-check relies on.

func cfgUnit(t *testing.T, src string) *ir.ProgramUnit {
	t.Helper()
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog.Main()
}

func TestStraightLine(t *testing.T) {
	u := cfgUnit(t, `
      PROGRAM P
      X = 1.0
      Y = 2.0
      Z = X + Y
      END
`)
	g := buildCFG(u)
	// entry -> x -> y -> z -> exit, all dominated in order.
	s := u.Body.Stmts
	for i := 0; i < len(s); i++ {
		for j := i; j < len(s); j++ {
			if !g.StmtDominates(s[i], s[j]) {
				t.Errorf("stmt %d should dominate stmt %d", i, j)
			}
		}
	}
	if g.StmtDominates(s[2], s[0]) {
		t.Errorf("later statement dominates earlier")
	}
}

func TestIfDiamond(t *testing.T) {
	u := cfgUnit(t, `
      PROGRAM P
      X = 1.0
      IF (X .GT. 0.0) THEN
        Y = 1.0
      ELSE
        Y = 2.0
      END IF
      Z = Y
      END
`)
	g := buildCFG(u)
	body := u.Body.Stmts
	ifStmt := body[1].(*ir.IfStmt)
	thenS := ifStmt.Then.Stmts[0]
	elseS := ifStmt.Else.Stmts[0]
	after := body[2]
	if !g.StmtDominates(ifStmt, thenS) || !g.StmtDominates(ifStmt, elseS) {
		t.Errorf("IF does not dominate branches")
	}
	if g.StmtDominates(thenS, after) || g.StmtDominates(elseS, after) {
		t.Errorf("branch wrongly dominates join")
	}
	if !g.StmtDominates(ifStmt, after) {
		t.Errorf("IF does not dominate join")
	}
	// Both branches are successors of the IF node.
	n := g.NodeFor(ifStmt)
	if len(n.Succs) != 2 {
		t.Errorf("IF successors = %d, want 2", len(n.Succs))
	}
}

func TestIfWithoutElseFallThrough(t *testing.T) {
	u := cfgUnit(t, `
      PROGRAM P
      IF (X .GT. 0.0) THEN
        Y = 1.0
      END IF
      Z = 1.0
      END
`)
	g := buildCFG(u)
	ifStmt := u.Body.Stmts[0].(*ir.IfStmt)
	after := u.Body.Stmts[1]
	// The THEN body must NOT dominate the following statement.
	if g.StmtDominates(ifStmt.Then.Stmts[0], after) {
		t.Errorf("THEN body dominates fall-through")
	}
	n := g.NodeFor(ifStmt)
	if len(n.Succs) != 2 {
		t.Errorf("IF successors = %d, want 2 (then, fall-through)", len(n.Succs))
	}
}

func TestLoopBackEdge(t *testing.T) {
	u := cfgUnit(t, `
      PROGRAM P
      REAL A(10)
      DO I = 1, 10
        A(I) = 0.0
      END DO
      X = 1.0
      END
`)
	g := buildCFG(u)
	do := u.Body.Stmts[0].(*ir.DoStmt)
	bodyS := do.Body.Stmts[0]
	after := u.Body.Stmts[1]
	header := g.NodeFor(do)
	bodyN := g.NodeFor(bodyS)
	// body -> header back edge
	found := false
	for _, s := range bodyN.Succs {
		if s == header {
			found = true
		}
	}
	if !found {
		t.Errorf("missing back edge")
	}
	if !g.StmtDominates(do, bodyS) || !g.StmtDominates(do, after) {
		t.Errorf("loop header dominance wrong")
	}
	if g.StmtDominates(bodyS, after) {
		t.Errorf("loop body dominates loop exit")
	}
}

func TestReturnEdges(t *testing.T) {
	u := cfgUnit(t, `
      SUBROUTINE S(X)
      IF (X .GT. 0.0) THEN
        RETURN
      END IF
      X = 1.0
      END
`)
	g := buildCFG(u)
	ifStmt := u.Body.Stmts[0].(*ir.IfStmt)
	ret := ifStmt.Then.Stmts[0]
	retN := g.NodeFor(ret)
	if len(retN.Succs) != 1 || retN.Succs[0] != g.Exit {
		t.Errorf("RETURN does not connect to exit")
	}
	after := u.Body.Stmts[1]
	if g.StmtDominates(ret, after) {
		t.Errorf("RETURN dominates following statement")
	}
}

func TestEntryDominatesAll(t *testing.T) {
	u := cfgUnit(t, `
      PROGRAM P
      DO I = 1, 3
        IF (I .GT. 1) THEN
          X = 1.0
        END IF
      END DO
      END
`)
	g := buildCFG(u)
	for _, n := range g.Nodes {
		if len(n.Preds) == 0 && n != g.Entry {
			continue // unreachable
		}
		if !g.Dominates(g.Entry, n) {
			t.Errorf("entry does not dominate node %d", n.ID)
		}
	}
	if g.Idom(g.Entry) != nil {
		t.Errorf("entry has an idom")
	}
}

func TestNestedLoopDominators(t *testing.T) {
	u := cfgUnit(t, `
      PROGRAM P
      REAL A(10,10)
      DO I = 1, 10
        DO J = 1, 10
          A(I,J) = 0.0
        END DO
      END DO
      END
`)
	g := buildCFG(u)
	outer := u.Body.Stmts[0].(*ir.DoStmt)
	inner := outer.Body.Stmts[0].(*ir.DoStmt)
	assign := inner.Body.Stmts[0]
	if !g.StmtDominates(outer, inner) || !g.StmtDominates(inner, assign) {
		t.Errorf("nested dominance broken")
	}
	if g.Idom(g.NodeFor(assign)) != g.NodeFor(inner) {
		t.Errorf("idom of inner assign is not the inner DO")
	}
}
