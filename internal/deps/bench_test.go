package deps

import (
	"testing"

	"polaris/internal/ir"
	"polaris/internal/parser"
	"polaris/internal/rng"
	"polaris/internal/symbolic"
)

// triangularSrc is the TRFD-style nest whose linearized triangular
// subscript forces the range test (linear tests cannot decide it).
const triangularSrc = `
      PROGRAM TRI
      INTEGER N, K, J
      PARAMETER (N=40)
      REAL A(820)
      DO K = 1, N
        DO J = 1, K
          A(K*(K-1)/2 + J) = A(K*(K-1)/2 + J) + 1.0
        END DO
      END DO
      END
`

func benchNest(b *testing.B) (*Tester, *ir.DoStmt, *Nest) {
	b.Helper()
	prog, err := parser.ParseProgram(triangularSrc)
	if err != nil {
		b.Fatalf("parse: %v", err)
	}
	u := prog.Main()
	t := NewTester(u, rng.New(u, symbolic.NewLeaves()))
	root := ir.Loops(u.Body)[0]
	return t, root, t.NewNest(root)
}

// BenchmarkRangeTestPair measures one range-test pair query on the
// triangular subscript: the per-pair unit of the O(n^2) scan.
func BenchmarkRangeTestPair(b *testing.B) {
	t, root, n := benchNest(b)
	accesses := n.accesses
	var wr, rd *Access
	for i := range accesses {
		if accesses[i].Array != "A" {
			continue
		}
		if accesses[i].Write && wr == nil {
			wr = &accesses[i]
		}
		if !accesses[i].Write && rd == nil {
			rd = &accesses[i]
		}
	}
	if wr == nil || rd == nil {
		b.Fatal("triangular accesses not found")
	}
	ranged := map[string]bool{"J": true}
	if !t.RangeTestPair(n, root, ranged, *wr, *rd) {
		b.Fatal("triangular pair not proved independent")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !t.RangeTestPair(n, root, ranged, *wr, *rd) {
			b.Fatal("triangular pair not proved independent")
		}
	}
}

// BenchmarkAnalyzeLoop measures the whole dependence analysis of the
// triangular nest (access collection, linear tests, range test).
func BenchmarkAnalyzeLoop(b *testing.B) {
	t, root, _ := benchNest(b)
	if v := t.AnalyzeLoop(root, Config{}); !v.Parallel {
		b.Fatalf("triangular nest not parallel: %s", v.Reason)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := t.AnalyzeLoop(root, Config{}); !v.Parallel {
			b.Fatalf("triangular nest not parallel: %s", v.Reason)
		}
	}
}

// TestAnalyzeLoopAllocBudget holds the whole analysis of a fixed
// three-deep nest with six accesses to its allocation count. Every
// access is converted once for the nest, not once per pair it appears
// in, and its linear form once per index list, not once per pair; a
// per-pair conversion, extraction, index set or fact list shows up here
// as a multiple of the budget, which is the measured count plus a tenth.
func TestAnalyzeLoopAllocBudget(t *testing.T) {
	prog, err := parser.ParseProgram(`
      PROGRAM P
      INTEGER N, I, J, K
      PARAMETER (N=20)
      REAL A(8000), B(8000)
      DO I = 1, N
        DO J = 1, N
          DO K = 1, N
            A(K + N*(J-1) + N*N*(I-1)) = A(K + N*(J-1) + N*N*(I-1)) + B(K + N*(J-1))
            IF (K .GT. 1) THEN
              B(K + N*N*(I-1)) = A(K + N*(J-1) + N*N*(I-1)) * B(K + N*(J-1))
            END IF
          END DO
        END DO
      END DO
      END
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	u := prog.Main()
	tester := NewTester(u, rng.New(u, symbolic.NewLeaves()))
	root := ir.Loops(u.Body)[0]
	if n := len(tester.NewNest(root).accesses); n != 6 {
		t.Fatalf("nest has %d accesses, want 6", n)
	}
	var stats Stats
	cfg := Config{Permutation: true, Stats: &stats}
	diffChecks := symbolic.ReadProverStats().DiffChecks
	tester.AnalyzeLoop(root, cfg)
	if want := (Stats{PairsTested: 12, LinearDecided: 6, RangeTests: 6, Permutations: 5}); stats != want {
		t.Fatalf("fixture tests %+v, want %+v", stats, want)
	}
	if symbolic.ReadProverStats().DiffChecks != diffChecks {
		t.Skip("-tags proverdiff: the reference prover allocates too")
	}
	// 947 measured plus a tenth (parent 1075 before the compile's leaf
	// table and the nest's assigned-scalar set; 1572 before linear forms
	// were kept and first differences read off, 3038 before the nest
	// context).
	const budget = 1042
	if allocs := testing.AllocsPerRun(20, func() { tester.AnalyzeLoop(root, cfg) }); allocs > budget {
		t.Errorf("AnalyzeLoop allocates %.0f times on the fixed nest; budget %d", allocs, budget)
	}
}
