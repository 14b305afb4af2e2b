package rt

import (
	"math"
	"testing"
)

// The interpreter and every emitted program call these same helpers,
// so the native oracle, which sets one against the other, cannot see a
// fault in them. These tables pin them by value.

func TestIPowValues(t *testing.T) {
	for _, c := range []struct{ b, e, want int64 }{
		{2, 10, 1024},
		{-3, 3, -27},
		{-3, 2, 9},
		{7, 0, 1},
		{7, 1, 7},
		// Bases 1, -1 and 0.
		{1, 5, 1},
		{-1, 5, -1},
		{-1, 4, 1},
		{0, 3, 0},
		{0, 0, 1},
		{1, 0, 1},
		{-1, 0, 1},
		// Negative exponents: 0 unless the base is 1 or -1.
		{2, -1, 0},
		{5, -2, 0},
		{-2, -1, 0},
		{0, -1, 0},
		{1, -3, 1},
		{-1, -3, -1},
		{-1, -2, 1},
	} {
		if got := IPow(c.b, c.e); got != c.want {
			t.Errorf("IPow(%d, %d) = %d, want %d", c.b, c.e, got, c.want)
		}
	}
}

func TestTripsValues(t *testing.T) {
	for _, c := range []struct{ init, limit, step, want int64 }{
		{1, 10, 1, 10},
		{1, 1, 1, 1},
		{1, 10, 3, 4}, // 1 4 7 10
		{1, 11, 3, 4}, // 1 4 7 10
		{1, 12, 3, 4}, // 1 4 7 10
		{0, 0, 5, 1},
		// Zero trip counts.
		{1, 0, 1, 0},
		{5, 4, 1, 0},
		{1, -1, 2, 0},
		// Negative trip counts clamp to zero.
		{1, -1, 1, 0},
		{1, -5, 1, 0},
		{1, -10, 3, 0},
		// Negative steps.
		{10, 1, -1, 10},
		{10, 1, -3, 4}, // 10 7 4 1
		{10, 0, -3, 4}, // 10 7 4 1
		{3, 3, -1, 1},
		{3, 4, -1, 0},
		{1, 10, -1, 0},
		{1, 10, -4, 0},
	} {
		if got := Trips(c.init, c.limit, c.step); got != c.want {
			t.Errorf("Trips(%d, %d, %d) = %d, want %d", c.init, c.limit, c.step, got, c.want)
		}
	}
}

func TestSignValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, c := range []struct{ a, b, want float64 }{
		{3, 1, 3},
		{3, -1, -3},
		{-3, 1, 3},
		{-3, -1, -3},
		{-3, 0, 3},
		// b = -0.0 is not below zero: |a|, positive.
		{3, negZero, 3},
		{-3, negZero, 3},
		{negZero, negZero, 0},
		{negZero, 1, 0},
		{0, -1, negZero},
	} {
		got := Sign(c.a, c.b)
		if math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("Sign(%v, %v) = %v (bits %#x), want %v (bits %#x)",
				c.a, c.b, got, math.Float64bits(got), c.want, math.Float64bits(c.want))
		}
	}
}

func TestIAbsValues(t *testing.T) {
	for _, c := range []struct{ x, want int64 }{
		{5, 5},
		{-5, 5},
		{0, 0},
		{math.MaxInt64, math.MaxInt64},
		{math.MinInt64, math.MinInt64}, // wraps, as -x does
	} {
		if got := IAbs(c.x); got != c.want {
			t.Errorf("IAbs(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

// Integer MAX and MIN compare through float64 and keep the left operand
// on a tie, so two integers that round to one float64 give the left.
func TestIntegerExtremaTies(t *testing.T) {
	const big = 1 << 53 // big+1 rounds to big as a float64
	for _, c := range []struct {
		name       string
		f          func(a, b int64) int64
		a, b, want int64
	}{
		{"imaxv", imaxv, 5, 5, 5},
		{"imaxv", imaxv, 3, 4, 4},
		{"imaxv", imaxv, 4, 3, 4},
		{"imaxv", imaxv, big + 1, big, big + 1},
		{"imaxv", imaxv, big, big + 1, big},
		{"iminv", iminv, 5, 5, 5},
		{"iminv", iminv, 3, 4, 3},
		{"iminv", iminv, 4, 3, 3},
		{"iminv", iminv, big + 1, big, big + 1},
		{"iminv", iminv, big, big + 1, big},
	} {
		if got := c.f(c.a, c.b); got != c.want {
			t.Errorf("%s(%d, %d) = %d, want %d", c.name, c.a, c.b, got, c.want)
		}
	}
}
