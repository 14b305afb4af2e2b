package symbolic

import "testing"

// The prover microbenchmark fixture.

// BenchEnv returns the proof environment of a TRFD-style triangular
// loop nest — the shape that dominates the range test's query mix:
//
//	DO K = 1, N
//	  DO J = 1, K
//	    ... A(K*(K-1)/2 + J) ...
//
// Elimination order is J (innermost), then K, then the symbolic
// parameter N with only a lower bound.
func BenchEnv() *Env {
	env := NewEnv()
	env.Push("J", Bound{Lo: Int(1), Hi: Var("K")})
	env.Push("K", Bound{Lo: Int(1), Hi: Var("N")})
	env.Push("N", Bound{Lo: Int(1)})
	return env
}

// BenchQuery is one prover query over BenchEnv: prove E >= 0, or E > 0
// when Strict. Want pins the expected answer so benchmarks double as a
// correctness check.
type BenchQuery struct {
	Name   string
	E      *Expr
	Strict bool
	Want   bool
}

// triangular returns K*(K-1)/2 + J, the linearized triangular
// subscript of TRFD's OLDA loops.
func triangular() *Expr {
	k := Var("K")
	return Add(DivInt(Mul(k, Sub(k, Int(1))), 2), Var("J"))
}

// BenchQueries returns the microbenchmark query mix: separation and
// bounds queries the range test issues on triangular subscripts, plus
// unprovable queries that force the prover to explore every
// elimination path (its worst case).
func BenchQueries() []BenchQuery {
	n, k, j := Var("N"), Var("K"), Var("J")
	return []BenchQuery{
		// N - J >= 0: two chained eliminations (J at Hi=K, K at Hi=N).
		{Name: "chain-ge", E: Sub(n, j), Want: true},
		// Subscript lower bound: K*(K-1)/2 + J - 1 >= 0.
		{Name: "tri-lo", E: Sub(triangular(), Int(1)), Want: true},
		// Next-iteration separation K - J + 1 > 0 (ascending range
		// test on the triangular subscript after cancellation).
		{Name: "tri-sep", E: Add(Sub(k, j), Int(1)), Strict: true, Want: true},
		// J + N - K > 0: strict chain through all three variables.
		{Name: "chain-gt", E: Sub(Add(j, n), k), Strict: true, Want: true},
		// N*K - K*J >= 0 is true (J <= K <= N) but beyond single-
		// endpoint elimination: the prover explores and fails.
		{Name: "explore-fail", E: Sub(Mul(n, k), Mul(k, j)), Want: false},
		// Quadratic separation that cancels to a constant only after
		// canonicalization of both triangular halves.
		{Name: "tri-cancel", E: Sub(Add(DivInt(Mul(k, Add(k, Int(1))), 2), Int(1)), triangular()), Strict: true, Want: true},
	}
}

// BenchComparePairs returns expression pairs for the Compare
// microbenchmark with their expected classifications.
type BenchComparePair struct {
	Name string
	A, B *Expr
	Want CompareResult
}

// BenchComparePairs returns the Compare workload: the expression
// comparisons range propagation performs between subscript bounds.
func BenchComparePairs() []BenchComparePair {
	n, k, j := Var("N"), Var("K"), Var("J")
	return []BenchComparePair{
		{Name: "affine-gt", A: Add(Mul(n, k), j), B: Add(Mul(n, Sub(k, Int(1))), k), Want: CmpGT},
		{Name: "eq", A: triangular(), B: triangular(), Want: CmpEQ},
		{Name: "tri-ge", A: triangular(), B: Int(1), Want: CmpGE},
		{Name: "unknown", A: Mul(n, j), B: Mul(k, k), Want: CmpUnknown},
	}
}

// runProveQueries issues the fixture query mix once against env,
// failing the benchmark on any wrong answer.
func runProveQueries(b *testing.B, env *Env, qs []BenchQuery) {
	b.Helper()
	for _, q := range qs {
		var got bool
		if q.Strict {
			got = env.ProveGT(q.E)
		} else {
			got = env.ProveGE(q.E)
		}
		if got != q.Want {
			b.Fatalf("%s: prove = %v, want %v", q.Name, got, q.Want)
		}
	}
}

// BenchmarkProve measures the steady-state prover cost on one shared
// environment — the shape of the range test's O(n^2) access-pair scan,
// where the same sub-proofs recur across pairs.
func BenchmarkProve(b *testing.B) {
	env := BenchEnv()
	qs := BenchQueries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runProveQueries(b, env, qs)
	}
}

// BenchmarkProveColdEnv measures the cold cost: a fresh environment
// per iteration, so nothing carries over between query batches.
func BenchmarkProveColdEnv(b *testing.B) {
	qs := BenchQueries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runProveQueries(b, BenchEnv(), qs)
	}
}

// BenchmarkCompare measures expression comparison (range
// propagation's workhorse) on the fixture pairs.
func BenchmarkCompare(b *testing.B) {
	env := BenchEnv()
	ps := BenchComparePairs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			if got := env.Compare(p.A, p.B); got != p.Want {
				b.Fatalf("%s: Compare = %v, want %v", p.Name, got, p.Want)
			}
		}
	}
}

// TestBenchFixtureAnswers pins the fixture's expected answers in a
// plain test, so a prover change that breaks the fixture fails go test
// (not only go test -bench).
func TestBenchFixtureAnswers(t *testing.T) {
	env := BenchEnv()
	for _, q := range BenchQueries() {
		var got bool
		if q.Strict {
			got = env.ProveGT(q.E)
		} else {
			got = env.ProveGE(q.E)
		}
		if got != q.Want {
			t.Errorf("%s: prove = %v, want %v", q.Name, got, q.Want)
		}
	}
	for _, p := range BenchComparePairs() {
		if got := env.Compare(p.A, p.B); got != p.Want {
			t.Errorf("%s: Compare = %v, want %v", p.Name, got, p.Want)
		}
	}
}
