package symbolic

import (
	"math/big"
	"strconv"
)

// qv is a rational coefficient with a small-integer fast path. The
// overwhelming majority of coefficients in real subscript algebra are
// tiny integers (±1, ±2, bound offsets) or small fractions from
// triangular linearization (1/2): those live in n/d int64 fields with
// no heap allocation. Values that cannot be proven to fit are promoted
// to an exact *big.Rat fallback.
//
// Invariant: when r == nil, d > 0 and gcd(|n|, d) == 1. A qv with
// r != nil ignores n/d. The zero qv is the rational 0.
type qv struct {
	n, d int64
	r    *big.Rat
}

// qvSmallLimit bounds the small path: operands whose numerator or
// denominator reach it are promoted before arithmetic, so n*d products
// of two in-range operands cannot overflow int64 (2^31 * 2^31 < 2^63).
const qvSmallLimit = int64(1) << 31

func qvInt(v int64) qv {
	if v >= qvSmallLimit || v <= -qvSmallLimit {
		return qv{r: new(big.Rat).SetInt64(v)}
	}
	return qv{n: v, d: 1}
}

// qvFromRat converts r, demoting to the small path when it fits.
func qvFromRat(r *big.Rat) qv {
	if r.Num().IsInt64() && r.Denom().IsInt64() {
		n, d := r.Num().Int64(), r.Denom().Int64()
		if n < qvSmallLimit && n > -qvSmallLimit && d < qvSmallLimit {
			return qv{n: n, d: d} // big.Rat is already normalized
		}
	}
	return qv{r: new(big.Rat).Set(r)}
}

// Rat returns the value as a freshly allocated big.Rat.
func (q qv) Rat() *big.Rat {
	if q.r != nil {
		return new(big.Rat).Set(q.r)
	}
	return big.NewRat(q.n, q.d)
}

// big returns a big.Rat view for fallback arithmetic (shared when
// already big — callers must not mutate it).
func (q qv) big() *big.Rat {
	if q.r != nil {
		return q.r
	}
	return big.NewRat(q.n, q.d)
}

func (q qv) Sign() int {
	if q.r != nil {
		return q.r.Sign()
	}
	switch {
	case q.n > 0:
		return 1
	case q.n < 0:
		return -1
	}
	return 0
}

// small reports whether both operands are safely inside the small
// range for one multiply/add round.
func (q qv) small() bool {
	return q.r == nil && q.n < qvSmallLimit && q.n > -qvSmallLimit && q.d < qvSmallLimit
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// qvNorm normalizes a small-path intermediate (num over den, den > 0
// assumed) and re-checks the range.
func qvNorm(num, den int64) qv {
	if num == 0 {
		return qv{n: 0, d: 1}
	}
	if g := gcd64(num, den); g > 1 {
		num /= g
		den /= g
	}
	q := qv{n: num, d: den}
	if !q.small() {
		return qv{r: big.NewRat(num, den)}
	}
	return q
}

func qvAdd(a, b qv) qv {
	if a.small() && b.small() {
		// a.n/a.d + b.n/b.d; operands < 2^31 so the products fit.
		return qvNorm(a.n*b.d+b.n*a.d, a.d*b.d)
	}
	return qvFromRat(new(big.Rat).Add(a.big(), b.big()))
}

func qvMul(a, b qv) qv {
	if a.small() && b.small() {
		return qvNorm(a.n*b.n, a.d*b.d)
	}
	return qvFromRat(new(big.Rat).Mul(a.big(), b.big()))
}

func qvNeg(a qv) qv {
	if a.r != nil {
		return qv{r: new(big.Rat).Neg(a.r)}
	}
	return qv{n: -a.n, d: a.d}
}

func qvCmp(a, b qv) int {
	if a.r == nil && b.r == nil {
		return qvAdd(a, qvNeg(b)).Sign()
	}
	return a.big().Cmp(b.big())
}

// qvInv returns 1/a for nonzero a.
func qvInv(a qv) qv {
	switch {
	case a.r != nil:
		return qvFromRat(new(big.Rat).Inv(a.r))
	case a.n < 0:
		return qv{n: -a.d, d: -a.n}
	}
	return qv{n: a.d, d: a.n}
}

// int64 returns the value and true when it is an integer fitting int64.
func (q qv) int64() (int64, bool) {
	if q.r != nil {
		return q.r.Num().Int64(), q.r.IsInt() && q.r.Num().IsInt64()
	}
	return q.n, q.d == 1
}

// absIsOne reports whether the value is 1 or -1 (a promoted value never
// is: arithmetic demotes whatever fits the small path).
func (q qv) absIsOne() bool {
	return q.r == nil && q.d == 1 && (q.n == 1 || q.n == -1)
}

// appendAbs appends |q| as the canonical rendering spells it: an
// integer, or numerator/denominator.
func (q qv) appendAbs(b []byte) []byte {
	if q.r != nil {
		b = new(big.Int).Abs(q.r.Num()).Append(b, 10)
		if !q.r.IsInt() {
			b = q.r.Denom().Append(append(b, '/'), 10)
		}
		return b
	}
	n := q.n
	if n < 0 {
		n = -n
	}
	b = strconv.AppendInt(b, n, 10)
	if q.d != 1 {
		b = strconv.AppendInt(append(b, '/'), q.d, 10)
	}
	return b
}
