package deps_test

import (
	"fmt"
	"testing"

	"polaris/internal/core"
	"polaris/internal/deps"
	"polaris/internal/fuzzgen"
	"polaris/internal/ir"
	"polaris/internal/parser"
	"polaris/internal/priv"
	"polaris/internal/reduction"
	"polaris/internal/rng"
	"polaris/internal/symbolic"
)

// fullRecheck is the flag removal IndependentUnmasked replaced: the
// whole analysis again on a nest of its own, with the candidate's
// statements unmasked and the permuted test off.
func fullRecheck(tester *deps.Tester, loop *ir.DoStmt, cand *reduction.Candidate, cfg deps.Config) bool {
	skip := map[ir.Stmt]bool{}
	for s := range cfg.SkipStmts {
		skip[s] = true
	}
	for _, st := range cand.Stmts {
		delete(skip, st)
	}
	cfg2 := cfg
	cfg2.SkipStmts = skip
	cfg2.Permutation = false // cheap re-check at this level only
	return tester.AnalyzeLoop(loop, cfg2).Parallel
}

// TestFlagRemovalMatchesFullRecheck takes every loop of the 16 suite
// programs, mega10k and the 200 generated programs of the analyzer
// corpus, as parsed and as compiled, masks its reduction candidates and
// excludes its private arrays as the dependence pass does, and requires
// of every array candidate of every loop that testing only the pairs
// its mask hid, on the nest the verdict was reached on, decides its
// flag as the full re-analysis does. The pass asks only on parallel
// verdicts; on a serial one both must keep the flag.
func TestFlagRemovalMatchesFullRecheck(t *testing.T) {
	sources := suiteAndMega10k(t)
	for seed := uint64(1); seed <= 200; seed++ {
		sources = append(sources, source{fmt.Sprintf("fuzzgen-%03d", seed), fuzzgen.Generate(fuzzgen.Config{Seed: seed}).Source})
	}
	// None of those proves a loop with an array reduction in a permuted
	// order, or reads a reduction's operand from an array the loop
	// writes. OCEAN's nest (Figure 3) gains a reduction whose own pairs
	// are independent in the identity order, which the A pairs still
	// fail. In the second loop the pair the mask hid has B's write, a
	// statement outside the candidate, as its first access.
	sources = append(sources, source{"permuted", `
      SUBROUTINE FTRVMT(X, Z, A, S)
      INTEGER X, Z(X), K, J, I
      REAL A(100000), S(100000)
      IF (X .GE. 1) THEN
        DO K = 0, X-1
          DO J = 0, Z(K+1)
            DO I = 0, 128
              A(258*X*J + 129*K + I + 1) = 0.5
              A(258*X*J + 129*K + I + 1 + 129*X) = 1.5
              S(129*K + I + 1) = S(129*K + I + 1) + 1.0
            END DO
          END DO
        END DO
      END IF
      END
`}, source{"operand", `
      SUBROUTINE S(N, Q, B)
      INTEGER N, I
      REAL Q(100), B(200)
      DO I = 1, N
        B(I) = 1.0
        Q(I) = Q(I) + B(I + 15)
      END DO
      END
`})
	var dropped, kept, identity, permuted, serial int
	for _, s := range sources {
		parsed, err := parser.ParseProgram(s.src)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		res, err := core.Compile(parser.MustParse(s.src), core.PolarisOptions())
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for _, prog := range []*ir.Program{parsed, res.Program} {
			for _, u := range prog.Units {
				ranges := rng.New(u, symbolic.NewLeaves())
				tester := deps.NewTester(u, ranges)
				for _, loop := range ir.Loops(u.Body) {
					reds := reduction.Recognize(u, loop)
					n := tester.NewNest(loop)
					excluded := map[string]bool{}
					for _, a := range priv.Analyze(u, ranges, n).PrivateArrays {
						excluded[a] = true
					}
					cfg := deps.Config{Permutation: true, SkipStmts: reds.SkipSet(), ExcludeArrays: excluded}
					v := tester.AnalyzeNest(n, cfg)
					for i := range reds.Candidates {
						cand := &reds.Candidates[i]
						if !cand.IsArray() {
							continue
						}
						unmask := map[ir.Stmt]bool{}
						for _, st := range cand.Stmts {
							unmask[st] = true
						}
						got := tester.IndependentUnmasked(n, v, cfg, unmask)
						if want := fullRecheck(tester, loop, cand, cfg); got != want {
							t.Errorf("%s/%s: DO %s (%s), candidate %s: independent unmasked %v, the full re-analysis %v",
								s.name, u.Name, loop.Index, v.Reason, cand.Target, got, want)
						}
						if got {
							dropped++
						} else {
							kept++
						}
						switch {
						case !v.Parallel:
							serial++
						case len(v.Permutation) > 0:
							permuted++
						default:
							identity++
						}
					}
				}
			}
		}
	}
	// Every outcome and every kind of verdict must have been reached.
	t.Logf("%d flags dropped, %d kept; %d on identity-order verdicts, %d on permuted ones, %d on serial ones",
		dropped, kept, identity, permuted, serial)
	if dropped == 0 || kept == 0 || identity == 0 || permuted == 0 || serial == 0 {
		t.Errorf("%d dropped, %d kept, %d identity, %d permuted, %d serial: the walk is not reaching them",
			dropped, kept, identity, permuted, serial)
	}
}
