package symbolic

import (
	"math/big"

	"polaris/internal/ir"
)

// Resolver supplies symbolic values for program names during
// conversion: PARAMETER constants, closed forms of solved induction
// variables, and so on. Returning nil leaves the name as a free
// variable.
type Resolver func(name string) *Expr

// Conv is the result of converting an IR expression.
type Conv struct {
	E *Expr
	// IntDivApprox is set when an integer division by a constant was
	// relaxed to exact rational division. Consumers that prove strict
	// separations on integer-valued expressions must then require a
	// margin of >= 1 rather than > 0 (floor errors are < 1).
	IntDivApprox bool
	// OK is false when the expression contains constructs outside the
	// arithmetic subset (logical operators, relations).
	OK bool
}

// Leaves is one compile's table of converted leaves: FromIR returns the
// table's Expr for every integer constant and every variable it leaves
// free, so a compile builds each once however often it converts it.
// Sharing is sound because an Expr is never written after its builder
// returns it; the lazily filled caches on a shared leaf (String, forward
// differences, negation, substitutions) are written by whichever query
// comes first, so a table belongs to one compile on one goroutine, and
// is garbage with it.
type Leaves struct {
	ints map[int64]*Expr
	vars map[string]*Expr
}

// NewLeaves returns an empty table.
func NewLeaves() *Leaves {
	return &Leaves{ints: map[int64]*Expr{}, vars: map[string]*Expr{}}
}

// Int returns the table's constant polynomial v.
func (l *Leaves) Int(v int64) *Expr {
	e, ok := l.ints[v]
	if !ok {
		e = Int(v)
		l.ints[v] = e
	}
	return e
}

// Var returns the table's polynomial of the single variable name.
func (l *Leaves) Var(name string) *Expr {
	e, ok := l.vars[name]
	if !ok {
		e = Var(name)
		l.vars[name] = e
	}
	return e
}

// FromIR converts an arithmetic IR expression to a symbolic polynomial,
// taking integer constants and free variables from lv. Array reads and
// unknown function calls become opaque atoms; integer division by a
// constant becomes exact rational division (flagged); division by a
// non-constant becomes the opaque IDIV atom.
func FromIR(e ir.Expr, lv *Leaves, resolve Resolver) Conv {
	c := converter{lv: lv, resolve: resolve}
	s := c.conv(e)
	if s == nil {
		return Conv{OK: false}
	}
	return Conv{E: s, IntDivApprox: c.intDiv, OK: true}
}

type converter struct {
	lv      *Leaves
	resolve Resolver
	intDiv  bool
}

func (c *converter) conv(e ir.Expr) *Expr {
	switch x := e.(type) {
	case *ir.ConstInt:
		return c.lv.Int(x.Val)
	case *ir.ConstReal:
		r := new(big.Rat)
		r.SetFloat64(x.Val)
		return Rat(r)
	case *ir.VarRef:
		if c.resolve != nil {
			if v := c.resolve(x.Name); v != nil {
				return v
			}
		}
		return c.lv.Var(x.Name)
	case *ir.ArrayRef:
		args := make([]*Expr, len(x.Subs))
		for i, s := range x.Subs {
			args[i] = c.conv(s)
			if args[i] == nil {
				return nil
			}
		}
		return OpaqueAtom(Atom{Name: x.Name, Args: args})
	case *ir.Call:
		args := make([]*Expr, len(x.Args))
		for i, s := range x.Args {
			args[i] = c.conv(s)
			if args[i] == nil {
				return nil
			}
		}
		return OpaqueAtom(Atom{Name: x.Name, Args: args, Call: true})
	case *ir.Unary:
		if x.Op != ir.OpNeg {
			return nil
		}
		v := c.conv(x.X)
		if v == nil {
			return nil
		}
		return Neg(v)
	case *ir.Binary:
		if !x.Op.IsArith() {
			return nil
		}
		l := c.conv(x.L)
		if l == nil {
			return nil
		}
		r := c.conv(x.R)
		if r == nil {
			return nil
		}
		switch x.Op {
		case ir.OpAdd:
			return Add(l, r)
		case ir.OpSub:
			return Sub(l, r)
		case ir.OpMul:
			return Mul(l, r)
		case ir.OpDiv:
			if rc, ok := r.constQV(); ok && rc.Sign() != 0 {
				c.intDiv = true
				return scale(l, qvInv(rc))
			}
			return OpaqueAtom(Atom{Name: "IDIV", Args: []*Expr{l, r}, Call: true})
		case ir.OpPow:
			if n, ok := r.ConstInt64(); ok && n >= 0 && n <= 16 {
				return Pow(l, int(n))
			}
			return OpaqueAtom(Atom{Name: "IPOW", Args: []*Expr{l, r}, Call: true})
		}
	}
	return nil
}

// ToIR converts a polynomial back to an IR expression. Rational
// coefficients are cleared by multiplying through with the denominator
// LCM and emitting a single trailing integer division, reproducing the
// "(... )/2" shapes of the Polaris examples. The division is exact
// whenever the polynomial is integer-valued, which holds for the
// closed forms produced by induction substitution.
func ToIR(e *Expr) ir.Expr {
	l := e.DenominatorLCM()
	scaled := e
	if l.Cmp(big.NewInt(1)) != 0 {
		scaled = MulRat(e, new(big.Rat).SetInt(l))
	}
	sum := sumToIR(scaled)
	if l.Cmp(big.NewInt(1)) != 0 {
		sum = ir.Div(sum, ir.Int(l.Int64()))
	}
	return sum
}

func sumToIR(e *Expr) ir.Expr {
	if len(e.terms) == 0 {
		return ir.Int(0)
	}
	var out ir.Expr
	for i := range e.terms {
		t := &e.terms[i]
		neg := t.coef.Sign() < 0
		piece := termToIR(t.coef, t.factors)
		switch {
		case out == nil && neg:
			out = ir.Neg(piece)
		case out == nil:
			out = piece
		case neg:
			out = ir.Sub(out, piece)
		default:
			out = ir.Add(out, piece)
		}
	}
	return out
}

// termToIR renders |coef| times the factors.
func termToIR(coef qv, fs []factor) ir.Expr {
	abs, isInt := coef.int64()
	ir.Assert(isInt, "symbolic.ToIR: coefficient after scaling is not an int64")
	var out ir.Expr
	if !coef.absIsOne() || len(fs) == 0 {
		if abs < 0 {
			abs = -abs
		}
		out = ir.Int(abs)
	}
	for _, f := range fs {
		base := atomToIR(f.atom)
		var p ir.Expr
		switch {
		case f.pow == 1:
			p = base
		case f.pow <= 3:
			// Strength-reduce small powers to multiplications (the
			// form a code generator would emit).
			p = base
			for i := 1; i < f.pow; i++ {
				p = ir.Mul(p, base.Clone())
			}
		default:
			p = ir.Bin(ir.OpPow, base, ir.Int(int64(f.pow)))
		}
		if out == nil {
			out = p
		} else {
			out = ir.Mul(out, p)
		}
	}
	return out
}

func atomToIR(a Atom) ir.Expr {
	if a.Args == nil {
		return ir.Var(a.Name)
	}
	if a.Call && a.Name == "IDIV" && len(a.Args) == 2 {
		return ir.Div(ToIR(a.Args[0]), ToIR(a.Args[1]))
	}
	if a.Call && a.Name == "IPOW" && len(a.Args) == 2 {
		return ir.Bin(ir.OpPow, ToIR(a.Args[0]), ToIR(a.Args[1]))
	}
	args := make([]ir.Expr, len(a.Args))
	for i, s := range a.Args {
		args[i] = ToIR(s)
	}
	if a.Call {
		return &ir.Call{Name: a.Name, Args: args}
	}
	return &ir.ArrayRef{Name: a.Name, Subs: args}
}
