package priv

import (
	"testing"

	"polaris/internal/ir"
	"polaris/internal/parser"
)

// TestScalarVerdictsAgreeWithCFGDominance cross-checks the privatizer's
// structured-walk exposure analysis against the CFG dominance relation:
// a scalar reported private must have every use dominated by some def
// of it within the loop body (viewing one iteration as a unit), and a
// scalar reported exposed must have at least one use not dominated by
// any def.
func TestScalarVerdictsAgreeWithCFGDominance(t *testing.T) {
	cases := []string{
		`
      SUBROUTINE S1(N, A, B)
      INTEGER N, I
      REAL A(N), B(N), T
      DO I = 1, N
        T = B(I) * 2.0
        A(I) = T + 1.0
      END DO
      END
`, `
      SUBROUTINE S2(N, A)
      INTEGER N, I
      REAL A(N), T
      T = 0.0
      DO I = 1, N
        A(I) = T
        T = A(I) * 2.0
      END DO
      END
`, `
      SUBROUTINE S3(N, A)
      INTEGER N, I
      REAL A(N), T
      DO I = 1, N
        IF (A(I) .GT. 0.0) THEN
          T = A(I)
          A(I) = T * 2.0
        ELSE
          T = -A(I)
          A(I) = T * 3.0
        END IF
      END DO
      END
`,
	}
	for _, src := range cases {
		prog, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		u := prog.Main()
		loop := ir.OuterLoops(u.Body)[0]
		res := analyze(u, loop)

		// Build a one-iteration view: a unit whose body is the loop
		// body, so dominance means "within the same iteration".
		iter := ir.NewUnit(ir.UnitSubroutine, "ITER")
		iter.Symbols = u.Symbols
		iter.Body = loop.Body
		g := buildCFG(iter)

		verdict := map[string]bool{}
		for _, s := range res.PrivateScalars {
			verdict[s] = true
		}
		// Collect defs and uses of T.
		var defs []ir.Stmt
		var uses []ir.Stmt
		ir.WalkStmts(loop.Body, func(s ir.Stmt) bool {
			if a, ok := s.(*ir.AssignStmt); ok {
				if v, ok := a.LHS.(*ir.VarRef); ok && v.Name == "T" {
					defs = append(defs, s)
				}
				if ir.References(a.RHS, "T") {
					uses = append(uses, s)
				}
			}
			if ifs, ok := s.(*ir.IfStmt); ok && ir.References(ifs.Cond, "T") {
				uses = append(uses, s)
			}
			return true
		})
		allDominated := len(defs) > 0
		for _, use := range uses {
			dominated := false
			for _, def := range defs {
				// A use in the defining statement itself reads the old
				// value: not dominated by that def.
				if def != use && g.StmtDominates(def, use) {
					dominated = true
				}
			}
			if !dominated {
				allDominated = false
			}
		}
		if verdict["T"] != allDominated {
			t.Errorf("privatizer and CFG dominance disagree on T (priv=%v, dom=%v) for:\n%s",
				verdict["T"], allDominated, src)
		}
	}
}
