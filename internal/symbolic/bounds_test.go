package symbolic

import (
	"math/big"
	"testing"
	"testing/quick"
)

// trfdEnv builds the environment of Figure 2 of the paper:
// k in [0, j-1], j in [0, n-1], i in [0, m-1], n >= 1, m >= 1,
// in inner-to-outer elimination order.
func trfdEnv() *Env {
	env := NewEnv()
	env.Push("K", Bound{Lo: Int(0), Hi: Sub(Var("J"), Int(1))})
	env.Push("J", Bound{Lo: Int(0), Hi: Sub(Var("N"), Int(1))})
	env.Push("I", Bound{Lo: Int(0), Hi: Sub(Var("M"), Int(1))})
	env.Push("N", Bound{Lo: Int(1)})
	env.Push("M", Bound{Lo: Int(1)})
	return env
}

func TestProveSimple(t *testing.T) {
	env := NewEnv()
	env.Push("N", Bound{Lo: Int(1)})
	cases := []struct {
		e      *Expr
		ge, gt bool
	}{
		{Int(0), true, false},
		{Int(5), true, true},
		{Int(-1), false, false},
		{Var("N"), true, true},                              // n >= 1
		{Sub(Var("N"), Int(1)), true, false},                // n-1 >= 0
		{Add(Pow(Var("N"), 2), Var("N")), true, true},       // n^2+n > 0
		{Add(Var("N"), Int(1)), true, true},                 // n+1 > 0
		{Sub(Int(0), Var("N")), false, false},               // -n
		{Mul(Var("N"), Sub(Var("N"), Int(1))), true, false}, // n(n-1) >= 0
		{Var("Q"), false, false},                            // unbounded unknown
		{Sub(Pow(Var("N"), 2), Var("N")), true, false},      // n^2-n >= 0
		{Sub(Pow(Var("N"), 2), Int(1)), true, false},        // n^2-1 >= 0
		{Add(Mul(Int(2), Var("N")), Int(-2)), true, false},  // 2n-2 >= 0
	}
	for _, c := range cases {
		if got := env.ProveGE(c.e); got != c.ge {
			t.Errorf("ProveGE(%s) = %v, want %v", c.e, got, c.ge)
		}
		if got := env.ProveGT(c.e); got != c.gt {
			t.Errorf("ProveGT(%s) = %v, want %v", c.e, got, c.gt)
		}
	}
}

func TestProveTriangular(t *testing.T) {
	env := trfdEnv()
	// j^2 - j >= 0 for j in [0, n-1]
	if !env.ProveGE(Sub(Pow(Var("J"), 2), Var("J"))) {
		t.Errorf("j^2-j >= 0 not proven")
	}
	// k <= j-1 < n-1 => n-1-k > ... prove n-1-k >= 0
	if !env.ProveGE(Sub(Sub(Var("N"), Int(1)), Var("K"))) {
		t.Errorf("n-1-k >= 0 not proven")
	}
	// k >= 0
	if !env.ProveGE(Var("K")) {
		t.Errorf("k >= 0 not proven")
	}
	// NOT provable: k - 1 >= 0 (k may be 0)
	if env.ProveGE(Sub(Var("K"), Int(1))) {
		t.Errorf("k-1 >= 0 wrongly proven")
	}
}

// The exact monotonicity chain of the paper's Figure 2 walk-through.
func TestRangeTestFig2Chain(t *testing.T) {
	env := trfdEnv()
	// f(i,j,k) = (i*(n^2+n) + j^2 - j)/2 + k + 1
	n := Var("N")
	f := Add(Add(DivInt(Add(Mul(Var("I"), Add(Pow(n, 2), n)), Sub(Pow(Var("J"), 2), Var("J"))), 2), Var("K")), Int(1))

	// Step 1: f is monotone non-decreasing in k (diff = 1).
	if m := env.MonotoneIn(f, "K"); m != MonoNonDecreasing {
		t.Fatalf("monotonicity in K = %v", m)
	}
	a1, ok := env.MaxOver(f, "K")
	if !ok {
		t.Fatalf("MaxOver K failed")
	}
	b1, ok := env.MinOver(f, "K")
	if !ok {
		t.Fatalf("MinOver K failed")
	}
	// a1 = f at k=j-1 ; b1 = f at k=0
	wantA1 := Add(DivInt(Add(Mul(Var("I"), Add(Pow(n, 2), n)), Sub(Pow(Var("J"), 2), Var("J"))), 2), Var("J"))
	if !Equal(a1, wantA1) {
		t.Errorf("a1 = %s, want %s", a1, wantA1)
	}

	// Step 2: a1 and b1 are monotone non-decreasing in j
	// (a1(j+1)-a1(j) = j+1 > 0, b1(j+1)-b1(j) = j >= 0).
	if m := env.MonotoneIn(a1, "J"); m != MonoNonDecreasing {
		t.Fatalf("a1 monotonicity in J = %v", m)
	}
	if m := env.MonotoneIn(b1, "J"); m != MonoNonDecreasing {
		t.Fatalf("b1 monotonicity in J = %v", m)
	}
	a2, _ := env.MaxOver(a1, "J")
	b2, _ := env.MinOver(b1, "J")
	// a2(i) = (i*(n^2+n) + n^2 - n)/2 ; b2(i) = i*(n^2+n)/2 + 1
	wantA2 := DivInt(Add(Mul(Var("I"), Add(Pow(n, 2), n)), Sub(Pow(n, 2), n)), 2)
	wantB2 := Add(DivInt(Mul(Var("I"), Add(Pow(n, 2), n)), 2), Int(1))
	if !Equal(a2, wantA2) {
		t.Errorf("a2 = %s, want %s", a2, wantA2)
	}
	if !Equal(b2, wantB2) {
		t.Errorf("b2 = %s, want %s", b2, wantB2)
	}

	// Step 3: b2(i+1) - a2(i) = n+1 > 0, and b2 monotone non-decreasing
	// in i: the outermost loop carries no dependence.
	sep := Sub(b2.Subst("I", Add(Var("I"), Int(1))), a2)
	if !Equal(sep, Add(n, Int(1))) {
		t.Errorf("b2(i+1)-a2(i) = %s, want N+1", sep)
	}
	if !env.ProveGT(sep) {
		t.Errorf("separation not proven positive")
	}
	if m := env.MonotoneIn(b2, "I"); m != MonoNonDecreasing {
		t.Errorf("b2 monotonicity in I = %v", m)
	}
}

func TestMonotoneUnknownSign(t *testing.T) {
	env := NewEnv()
	env.Push("I", Bound{Lo: Int(0), Hi: Int(10)})
	// n*i with unconstrained n: monotonicity unknown (paper's example:
	// max of n*i depends on the sign of n).
	e := Mul(Var("QN"), Var("I"))
	if m := env.MonotoneIn(e, "I"); m != MonoUnknown {
		t.Errorf("monotonicity of n*i with unknown n = %v, want unknown", m)
	}
	// With n >= 0 it becomes provable.
	env.Push("QN", Bound{Lo: Int(0)})
	if m := env.MonotoneIn(e, "I"); m != MonoNonDecreasing {
		t.Errorf("monotonicity with n >= 0 = %v", m)
	}
	if mx, ok := env.MaxOver(e, "I"); !ok || !Equal(mx, Mul(Var("QN"), Int(10))) {
		t.Errorf("MaxOver = %s, %v", mx, ok)
	}
}

func TestMonotoneNonIncreasing(t *testing.T) {
	env := NewEnv()
	env.Push("I", Bound{Lo: Int(1), Hi: Var("N")})
	env.Push("N", Bound{Lo: Int(1)})
	e := Sub(Int(100), Mul(Int(2), Var("I")))
	if m := env.MonotoneIn(e, "I"); m != MonoNonIncreasing {
		t.Fatalf("monotonicity = %v", m)
	}
	mx, ok := env.MaxOver(e, "I")
	if !ok || !Equal(mx, Int(98)) {
		t.Errorf("max = %s", mx)
	}
	mn, ok := env.MinOver(e, "I")
	if !ok || !Equal(mn, Sub(Int(100), Mul(Int(2), Var("N")))) {
		t.Errorf("min = %s", mn)
	}
}

func TestCompare(t *testing.T) {
	env := NewEnv()
	env.Push("N", Bound{Lo: Int(2)})
	cases := []struct {
		a, b *Expr
		want CompareResult
	}{
		{Var("N"), Int(1), CmpGT},
		{Var("N"), Int(2), CmpGE},
		{Int(1), Var("N"), CmpLT},
		{Var("N"), Var("N"), CmpEQ},
		{Var("N"), Var("Q"), CmpUnknown},
		{Mul(Var("N"), Var("N")), Var("N"), CmpGT}, // n>=2 => n^2-n >= 2
		{Add(Var("N"), Int(-2)), Int(0), CmpGE},
	}
	for _, c := range cases {
		if got := env.Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Property: the prover is sound — whenever ProveGE succeeds on a random
// polynomial under a random box, every integer sample in the box
// satisfies the inequality.
func TestProverSoundnessProperty(t *testing.T) {
	f := func(c0, c1, c2, lo1, w1, lo2, w2 int8) bool {
		env := NewEnv()
		l1, h1 := int64(lo1), int64(lo1)+int64(w1&15)
		l2, h2 := int64(lo2), int64(lo2)+int64(w2&15)
		env.Push("X", Bound{Lo: Int(l1), Hi: Int(h1)})
		env.Push("Y", Bound{Lo: Int(l2), Hi: Int(h2)})
		e := Add(Add(Mul(Int(int64(c2)), Mul(Var("X"), Var("Y"))), Mul(Int(int64(c1)), Var("X"))), Int(int64(c0)))
		if !env.ProveGE(e) {
			return true // nothing claimed
		}
		for x := l1; x <= h1; x++ {
			for y := l2; y <= h2; y++ {
				v, _ := e.EvalInt(map[string]int64{"X": x, "Y": y})
				if v.Sign() < 0 {
					t.Logf("counterexample: e=%s x=%d y=%d -> %v", e, x, y, v)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: MaxOver/MinOver bound every sampled value.
func TestMinMaxOverSoundnessProperty(t *testing.T) {
	f := func(c1, c2 int8, loRaw, wRaw uint8) bool {
		lo := int64(loRaw%20) - 10
		hi := lo + int64(wRaw%10)
		env := NewEnv()
		env.Push("X", Bound{Lo: Int(lo), Hi: Int(hi)})
		e := Add(Mul(Int(int64(c2)), Pow(Var("X"), 2)), Mul(Int(int64(c1)), Var("X")))
		mx, okMax := env.MaxOver(e, "X")
		mn, okMin := env.MinOver(e, "X")
		for x := lo; x <= hi; x++ {
			v, _ := e.EvalInt(map[string]int64{"X": x})
			if okMax {
				m, ok := mx.EvalInt(nil)
				if !ok {
					return false
				}
				if v.Cmp(m) > 0 {
					return false
				}
			}
			if okMin {
				m, ok := mn.EvalInt(nil)
				if !ok {
					return false
				}
				if v.Cmp(m) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEnvOps(t *testing.T) {
	env := NewEnv()
	env.Push("A", Bound{Lo: Int(0)})
	env.Push("B", Bound{Lo: Int(1)})
	env.PushFront("C", Bound{Lo: Int(2)})
	if names := env.Names(); len(names) != 3 || names[0] != "C" || names[2] != "B" {
		t.Errorf("Names = %v", names)
	}
	cl := env.Clone()
	cl.Remove("A")
	if _, ok := env.Lookup("A"); !ok {
		t.Errorf("Clone not independent")
	}
	if _, ok := cl.Lookup("A"); ok {
		t.Errorf("Remove failed")
	}
	// Push existing keeps position but overrides bound.
	env.Push("C", Bound{Lo: Int(5)})
	b, _ := env.Lookup("C")
	c, _ := b.Lo.Const()
	if c.Cmp(big.NewRat(5, 1)) != 0 || env.Names()[0] != "C" {
		t.Errorf("Push override wrong")
	}
}

func TestOpaqueBoundNonNeg(t *testing.T) {
	env := NewEnv()
	ind := Atom{Name: "IND", Args: []*Expr{Var("K")}}
	env.Push(ind.key(), Bound{Lo: Int(1), Hi: Sub(Var("I"), Int(1))})
	// IND(K) >= 0 should be provable through the atom bound.
	e := OpaqueAtom(ind)
	if !env.ProveGE(e) {
		t.Errorf("opaque atom with lo=1 not proven >= 0")
	}
}

func TestProveDirections(t *testing.T) {
	env := NewEnv()
	env.Push("N", Bound{Lo: Int(3), Hi: Int(10)})
	if !env.ProveLE(Sub(Var("N"), Int(10))) {
		t.Errorf("N-10 <= 0 not proven")
	}
	if !env.ProveLT(Sub(Var("N"), Int(11))) {
		t.Errorf("N-11 < 0 not proven")
	}
	if env.ProveLT(Sub(Var("N"), Int(10))) {
		t.Errorf("N-10 < 0 wrongly proven (N may be 10)")
	}
	if !env.ProveEQ(Sub(Var("N"), Var("N"))) {
		t.Errorf("N-N == 0 not proven")
	}
	if env.ProveEQ(Var("N")) {
		t.Errorf("N == 0 wrongly proven")
	}
	// Compare returning the LE-only case: N vs 10 with N in [3,10].
	if got := env.Compare(Var("N"), Int(10)); got != CmpLE {
		t.Errorf("Compare(N, 10) = %v, want CmpLE", got)
	}
}

// TestProveMemoCollapsesOrderings holds the reason the prove memo stays
// although few of a compile's queries hit it (DESIGN.md §5c). An
// unprovable query over n bounded variables makes proveSearch try every
// variable at every level, which without the memo is every elimination
// order, n! of them; keyed by (expression, mask, depth), the memo
// answers each subset of eliminated variables once, 2ⁿ of them. Nine
// variables in [1, 10] and -(1 + ΣVᵢ) >= 0: 2296 queries with the memo,
// 623 530 without it.
func TestProveMemoCollapsesOrderings(t *testing.T) {
	env := NewEnv()
	sum := Int(1)
	for i := 1; i <= 9; i++ {
		name := "V" + string(rune('0'+i))
		env.Push(name, Bound{Lo: Int(1), Hi: Int(10)})
		sum = Add(sum, Var(name))
	}
	before := ReadProverStats().Queries
	if env.ProveGE(Neg(sum)) {
		t.Fatal("proved -(1 + V1 + ... + V9) >= 0 with every Vi in [1, 10]")
	}
	const budget = 2560 // 2296 measured, plus about a tenth
	if queries := ReadProverStats().Queries - before; queries > budget {
		t.Errorf("the unprovable query took %d prover queries; budget %d", queries, budget)
	}
}
