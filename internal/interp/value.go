// Package interp executes Polaris IR programs on the simulated machine
// of package machine: a tree-walking interpreter with exact Fortran
// semantics for the supported subset, cycle accounting per operation,
// simulated DOALL execution honouring the ParInfo annotations
// (privatization, last values, reductions), speculative LRPD execution
// with the PD test, and an optional real-goroutine mode used by tests
// to validate that transformed loops are genuinely order-independent.
package interp

import (
	"fmt"
	"math"

	"polaris/internal/ir"
)

// Value is a runtime scalar value.
type Value struct {
	Kind ir.Type
	I    int64
	F    float64
	B    bool
}

// IntVal returns an integer value.
func IntVal(i int64) Value { return Value{Kind: ir.TypeInteger, I: i} }

// RealVal returns a real value.
func RealVal(f float64) Value { return Value{Kind: ir.TypeReal, F: f} }

// BoolVal returns a logical value.
func BoolVal(b bool) Value { return Value{Kind: ir.TypeLogical, B: b} }

// AsFloat converts numerics to float64.
func (v Value) AsFloat() float64 {
	if v.Kind == ir.TypeInteger {
		return float64(v.I)
	}
	return v.F
}

// AsInt converts numerics to int64 (truncating reals, as Fortran
// assignment to INTEGER does).
func (v Value) AsInt() int64 {
	if v.Kind == ir.TypeInteger {
		return v.I
	}
	return int64(v.F)
}

func (v Value) String() string {
	switch v.Kind {
	case ir.TypeInteger:
		return fmt.Sprintf("%d", v.I)
	case ir.TypeLogical:
		return fmt.Sprintf("%v", v.B)
	default:
		return fmt.Sprintf("%g", v.F)
	}
}

// Array is runtime array storage (column-major).
type Array struct {
	Name string
	Kind ir.Type
	Lo   []int64
	Size []int64
	F    []float64
	I    []int64
}

// NewArray allocates an array.
func NewArray(name string, kind ir.Type, lo, size []int64) *Array {
	total := int64(1)
	for _, s := range size {
		total *= s
	}
	a := &Array{Name: name, Kind: kind, Lo: lo, Size: size}
	if kind == ir.TypeInteger {
		a.I = make([]int64, total)
	} else {
		a.F = make([]float64, total)
	}
	return a
}

// Total returns the element count.
func (a *Array) Total() int {
	if a.Kind == ir.TypeInteger {
		return len(a.I)
	}
	return len(a.F)
}

// Get reads element i.
func (a *Array) Get(i int) Value {
	if a.Kind == ir.TypeInteger {
		return IntVal(a.I[i])
	}
	return RealVal(a.F[i])
}

// Set writes element i, converting the value to the array's type.
func (a *Array) Set(i int, v Value) {
	if a.Kind == ir.TypeInteger {
		a.I[i] = v.AsInt()
	} else {
		a.F[i] = v.AsFloat()
	}
}

// Fill sets every element to v (used for reduction identities).
func (a *Array) Fill(v Value) {
	if a.Kind == ir.TypeInteger {
		for i := range a.I {
			a.I[i] = v.AsInt()
		}
	} else {
		for i := range a.F {
			a.F[i] = v.AsFloat()
		}
	}
}

// cell is scalar storage. A cell may alias an array element (array
// elements passed as scalar actuals).
type cell struct {
	kind ir.Type
	v    Value
	arr  *Array
	idx  int
}

func (c *cell) load() Value {
	if c.arr != nil {
		return c.arr.Get(c.idx)
	}
	return c.v
}

func (c *cell) store(v Value) {
	if c.arr != nil {
		c.arr.Set(c.idx, v)
		return
	}
	switch c.kind {
	case ir.TypeInteger:
		c.v = IntVal(v.AsInt())
	case ir.TypeLogical:
		c.v = BoolVal(v.B)
	default:
		c.v = RealVal(v.AsFloat())
	}
}

// reductionIdentity returns the identity value for a reduction op.
func reductionIdentity(op string, kind ir.Type) Value {
	switch op {
	case "+":
		if kind == ir.TypeInteger {
			return IntVal(0)
		}
		return RealVal(0)
	case "*":
		if kind == ir.TypeInteger {
			return IntVal(1)
		}
		return RealVal(1)
	case "MAX":
		if kind == ir.TypeInteger {
			return IntVal(math.MinInt64)
		}
		return RealVal(math.Inf(-1))
	case "MIN":
		if kind == ir.TypeInteger {
			return IntVal(math.MaxInt64)
		}
		return RealVal(math.Inf(1))
	}
	return RealVal(0)
}

// combine merges two values under a reduction op.
func combine(op string, a, b Value) Value {
	switch op {
	case "+":
		if a.Kind == ir.TypeInteger && b.Kind == ir.TypeInteger {
			return IntVal(a.I + b.I)
		}
		return RealVal(a.AsFloat() + b.AsFloat())
	case "*":
		if a.Kind == ir.TypeInteger && b.Kind == ir.TypeInteger {
			return IntVal(a.I * b.I)
		}
		return RealVal(a.AsFloat() * b.AsFloat())
	case "MAX":
		if a.AsFloat() >= b.AsFloat() {
			return a
		}
		return b
	case "MIN":
		if a.AsFloat() <= b.AsFloat() {
			return a
		}
		return b
	}
	return a
}
