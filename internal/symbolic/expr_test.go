package symbolic

import (
	"math/big"
	"testing"
	"testing/quick"
)

func ratEq(r *big.Rat, num, den int64) bool { return r.Cmp(big.NewRat(num, den)) == 0 }

func TestBasicAlgebra(t *testing.T) {
	n := Var("N")
	i := Var("I")
	// (i+1)*(i-1) = i^2 - 1
	e := Mul(Add(i, Int(1)), Sub(i, Int(1)))
	want := Sub(Pow(i, 2), Int(1))
	if !Equal(e, want) {
		t.Errorf("(i+1)(i-1) = %s, want %s", e, want)
	}
	// n + n = 2n
	if got := Add(n, n); got.String() != "2*N^1" {
		t.Errorf("n+n = %s", got)
	}
	// n - n = 0
	if !Sub(n, n).IsZero() {
		t.Errorf("n-n not zero")
	}
	// constants fold
	c, ok := Add(Int(2), Mul(Int(3), Int(4))).Const()
	if !ok || !ratEq(c, 14, 1) {
		t.Errorf("2+3*4 = %v", c)
	}
}

func TestDivAndRationals(t *testing.T) {
	n := Var("N")
	e := DivInt(Add(Mul(n, n), n), 2) // (n^2+n)/2
	// times 2 gives back n^2+n
	if !Equal(MulRat(e, big.NewRat(2, 1)), Add(Mul(n, n), n)) {
		t.Errorf("rational scaling broken")
	}
	if got := e.DenominatorLCM(); got.Cmp(big.NewInt(2)) != 0 {
		t.Errorf("LCM = %v, want 2", got)
	}
	v, ok := e.EvalInt(map[string]int64{"N": 7})
	if !ok || !ratEq(v, 28, 1) {
		t.Errorf("(49+7)/2 = %v", v)
	}
}

func TestSubst(t *testing.T) {
	// e = i^2 + i*n; subst i -> j+1 gives (j+1)^2 + (j+1)*n
	e := Add(Pow(Var("I"), 2), Mul(Var("I"), Var("N")))
	got := e.Subst("I", Add(Var("J"), Int(1)))
	want := Add(Pow(Add(Var("J"), Int(1)), 2), Mul(Add(Var("J"), Int(1)), Var("N")))
	if !Equal(got, want) {
		t.Errorf("subst: %s != %s", got, want)
	}
	// substitution reaches opaque args
	op := Opaque("IND", Var("K"))
	got2 := op.Subst("K", Int(3))
	want2 := Opaque("IND", Int(3))
	if !Equal(got2, want2) {
		t.Errorf("subst into opaque: %s != %s", got2, want2)
	}
}

func TestSubstAtom(t *testing.T) {
	e := Add(Opaque("MP"), Int(1))
	key := Atom{Name: "MP", Args: []*Expr{}}.key()
	got := e.SubstAtom(key, Mul(Var("M"), Var("P")))
	want := Add(Mul(Var("M"), Var("P")), Int(1))
	if !Equal(got, want) {
		t.Errorf("SubstAtom: %s != %s", got, want)
	}
}

func TestForwardDiff(t *testing.T) {
	// d/di (i^2) = 2i + 1
	d := Pow(Var("I"), 2).ForwardDiff("I")
	if !Equal(d, Add(Mul(Int(2), Var("I")), Int(1))) {
		t.Errorf("forward diff of i^2 = %s", d)
	}
	// constant in i
	if !Var("N").ForwardDiff("I").IsZero() {
		t.Errorf("forward diff of N in I not zero")
	}
}

func TestVarsAndContains(t *testing.T) {
	e := Add(Mul(Var("I"), Var("N")), Opaque("IND", Var("K")))
	vars := e.Vars()
	for _, v := range []string{"I", "N", "K"} {
		if !vars[v] {
			t.Errorf("Vars missing %s", v)
		}
	}
	if !e.ContainsVar("K") {
		t.Errorf("ContainsVar missed var inside opaque")
	}
	if !e.HasOpaque() {
		t.Errorf("HasOpaque false")
	}
	deg, inOp := e.DegreeIn("K")
	if deg != 0 || !inOp {
		t.Errorf("DegreeIn(K) = %d,%v", deg, inOp)
	}
}

func TestCoeffsIn(t *testing.T) {
	// e = 3k^2 + n*k + 7
	e := Add(Add(Mul(Int(3), Pow(Var("K"), 2)), Mul(Var("N"), Var("K"))), Int(7))
	coeffs, ok := e.CoeffsIn("K")
	if !ok || len(coeffs) != 3 {
		t.Fatalf("CoeffsIn failed: %v %v", coeffs, ok)
	}
	if !Equal(coeffs[0], Int(7)) || !Equal(coeffs[1], Var("N")) || !Equal(coeffs[2], Int(3)) {
		t.Errorf("coeffs = %s, %s, %s", coeffs[0], coeffs[1], coeffs[2])
	}
	// reassemble
	re := Add(Add(coeffs[0], Mul(coeffs[1], Var("K"))), Mul(coeffs[2], Pow(Var("K"), 2)))
	if !Equal(re, e) {
		t.Errorf("reassembly mismatch")
	}
}

func TestStringCanonical(t *testing.T) {
	a := Add(Var("B"), Var("A"))
	b := Add(Var("A"), Var("B"))
	if a.String() != b.String() {
		t.Errorf("canonical strings differ: %q vs %q", a, b)
	}
	if Zero().String() != "0" {
		t.Errorf("zero string = %q", Zero())
	}
	neg := Sub(Zero(), Var("X"))
	if neg.String() != "-X^1" {
		t.Errorf("neg string = %q", neg)
	}
}

// Property: ring laws hold under random evaluation.
func TestRingLawsProperty(t *testing.T) {
	f := func(a, b, c int8, x, y int8) bool {
		ck := func(e *Expr) *Expr { checkInvariant(t, e); return e }
		A := ck(Add(ck(Mul(Int(int64(a)), Var("X"))), Int(int64(b))))
		B := ck(Add(ck(Mul(Int(int64(c)), Var("Y"))), Int(int64(a))))
		C := ck(Mul(Var("X"), Var("Y")))
		vals := map[string]int64{"X": int64(x), "Y": int64(y)}
		ev := func(e *Expr) *big.Rat {
			v, ok := ck(e).EvalInt(vals)
			if !ok {
				t.Fatalf("eval failed")
			}
			return v
		}
		// distributivity: A*(B+C) == A*B + A*C
		lhs := ev(Mul(A, ck(Add(B, C))))
		rhs := ev(Add(ck(Mul(A, B)), ck(Mul(A, C))))
		if lhs.Cmp(rhs) != 0 {
			return false
		}
		// commutativity
		if ev(Mul(A, B)).Cmp(ev(Mul(B, A))) != 0 {
			return false
		}
		// subtraction inverse: (A-B)+B == A
		return ev(Add(ck(Sub(A, B)), B)).Cmp(ev(A)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Subst then evaluate == evaluate with substituted value.
func TestSubstEvalProperty(t *testing.T) {
	f := func(a, b int8, x int8) bool {
		e := Add(Mul(Int(int64(a)), Pow(Var("I"), 2)), Mul(Int(int64(b)), Var("I")))
		repl := Add(Var("J"), Int(3))
		sub := e.Subst("I", repl)
		checkInvariant(t, e, repl, sub)
		v1, ok1 := sub.EvalInt(map[string]int64{"J": int64(x)})
		v2, ok2 := e.EvalInt(map[string]int64{"I": int64(x) + 3})
		return ok1 && ok2 && v1.Cmp(v2) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSumClosedMatchesBruteForce(t *testing.T) {
	// sum_{k=lo..hi} (3k^2 - k + 2) for several integer ranges.
	e := Add(Sub(Mul(Int(3), Pow(Var("K"), 2)), Var("K")), Int(2))
	for _, rg := range [][2]int64{{1, 10}, {0, 0}, {5, 5}, {3, 17}, {1, 0} /* empty */} {
		lo, hi := rg[0], rg[1]
		closed, ok := SumClosed(e, "K", Int(lo), Int(hi))
		if !ok {
			t.Fatalf("SumClosed failed")
		}
		got, _ := closed.EvalInt(nil)
		brute := big.NewRat(0, 1)
		for k := lo; k <= hi; k++ {
			v, _ := e.EvalInt(map[string]int64{"K": k})
			brute.Add(brute, v)
		}
		if got.Cmp(brute) != 0 {
			t.Errorf("sum over [%d,%d]: closed=%v brute=%v", lo, hi, got, brute)
		}
	}
}

// Property: Faulhaber closed forms match brute-force sums for all
// degrees up to maxFaulhaber.
func TestFaulhaberProperty(t *testing.T) {
	f := func(dRaw, loRaw, nRaw uint8) bool {
		d := int(dRaw) % (maxFaulhaber + 1)
		lo := int64(loRaw)%20 - 10
		n := int64(nRaw) % 15
		hi := lo + n - 1 // may be lo-1 (empty)
		e := Pow(Var("K"), d)
		closed, ok := SumClosed(e, "K", Int(lo), Int(hi))
		if !ok {
			return false
		}
		checkInvariant(t, e, closed, powerSumAt(d, Var("N")))
		got, _ := closed.EvalInt(nil)
		brute := big.NewRat(0, 1)
		for k := lo; k <= hi; k++ {
			v, _ := e.EvalInt(map[string]int64{"K": k})
			brute.Add(brute, v)
		}
		return got.Cmp(brute) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestSumClosedSymbolicBounds(t *testing.T) {
	// sum_{k=0..j-1} 1 = j
	one := Int(1)
	s, ok := SumClosed(one, "K", Int(0), Sub(Var("J"), Int(1)))
	if !ok || !Equal(s, Var("J")) {
		t.Errorf("sum of 1 over [0,j-1] = %s", s)
	}
	// sum_{k=1..j} k = (j^2+j)/2
	s2, ok := SumClosed(Var("K"), "K", Int(1), Var("J"))
	want := DivInt(Add(Pow(Var("J"), 2), Var("J")), 2)
	if !ok || !Equal(s2, want) {
		t.Errorf("sum k = %s, want %s", s2, want)
	}
	// the TRFD inner pattern: sum_{k=0..j-1} 1 summed over j=0..n-1
	// gives sum j = (n^2-n)/2
	s3, ok := SumClosed(Var("J"), "J", Int(0), Sub(Var("N"), Int(1)))
	want3 := DivInt(Sub(Pow(Var("N"), 2), Var("N")), 2)
	if !ok || !Equal(s3, want3) {
		t.Errorf("sum j over [0,n-1] = %s, want %s", s3, want3)
	}
}

func TestSumClosedRejectsOpaque(t *testing.T) {
	e := Opaque("IND", Var("K"))
	if _, ok := SumClosed(e, "K", Int(1), Int(10)); ok {
		t.Errorf("SumClosed accepted opaque dependence on K")
	}
}

func TestSumPrefix(t *testing.T) {
	// prefix sum of 1 over [1, i-1] (value entering iteration i) = i-1
	s, ok := SumPrefix(Int(1), "K", Int(1), Var("I"))
	if !ok || !Equal(s, Sub(Var("I"), Int(1))) {
		t.Errorf("SumPrefix = %s", s)
	}
}

func TestEvalOpaque(t *testing.T) {
	e := Add(Opaque("IND", Var("K")), Int(1))
	v, ok := e.Eval(func(a Atom) (*big.Rat, bool) {
		if a.Args != nil && a.Name == "IND" {
			return big.NewRat(41, 1), true
		}
		return nil, false
	})
	if !ok || !ratEq(v, 42, 1) {
		t.Errorf("Eval with opaque = %v, %v", v, ok)
	}
	if _, ok := e.EvalInt(map[string]int64{"K": 1}); ok {
		t.Errorf("EvalInt accepted opaque atom")
	}
}

func TestOpaqueIdentity(t *testing.T) {
	a := Opaque("IND", Var("K"))
	b := Opaque("IND", Var("K"))
	if !Equal(a, b) {
		t.Errorf("identical opaques unequal")
	}
	c := Opaque("IND", Var("J"))
	if Equal(a, c) {
		t.Errorf("different opaques equal")
	}
	// call vs array distinction
	call := OpaqueAtom(Atom{Name: "IND", Args: []*Expr{Var("K")}, Call: true})
	if Equal(a, call) {
		t.Errorf("array atom equal to call atom")
	}
	// IND(K) - IND(K) cancels
	if !Sub(a, b).IsZero() {
		t.Errorf("opaque cancellation failed")
	}
}
