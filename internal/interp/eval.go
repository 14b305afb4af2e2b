package interp

import (
	"fmt"
	"math"

	"polaris/internal/ir"
	"polaris/internal/rt"
)

// eval evaluates an expression, charging cycle costs per operation.
func (in *Interp) eval(fr *frame, e ir.Expr) (Value, error) {
	switch x := e.(type) {
	case *ir.ConstInt:
		in.charge(in.Cost.Load)
		return IntVal(x.Val), nil
	case *ir.ConstReal:
		in.charge(in.Cost.Load)
		return RealVal(x.Val), nil
	case *ir.ConstLogical:
		in.charge(in.Cost.Load)
		return BoolVal(x.Val), nil
	case *ir.VarRef:
		in.charge(in.Cost.Load)
		return fr.getCell(x.Name, fr.unit).load(), nil
	case *ir.ArrayRef:
		arr, idx, err := in.element(fr, x)
		if err != nil {
			return Value{}, err
		}
		if in.shadows != nil {
			if sh := in.shadows[arr]; sh != nil {
				sh.MarkRead(int64(idx), in.curIter)
				in.markCycles += in.Model.PDMarkCyclesPerAccess
			}
		}
		in.charge(in.Cost.Load)
		return arr.Get(idx), nil
	case *ir.Unary:
		v, err := in.eval(fr, x.X)
		if err != nil {
			return Value{}, err
		}
		in.charge(in.Cost.AddSub)
		switch x.Op {
		case ir.OpNeg:
			if v.Kind == ir.TypeInteger {
				return IntVal(-v.I), nil
			}
			return RealVal(-v.F), nil
		case ir.OpNot:
			return BoolVal(!v.B), nil
		}
	case *ir.Binary:
		return in.evalBinary(fr, x)
	case *ir.Call:
		return in.evalCall(fr, x)
	}
	return Value{}, fmt.Errorf("interp: unsupported expression %T", e)
}

func (in *Interp) evalBinary(fr *frame, x *ir.Binary) (Value, error) {
	l, err := in.eval(fr, x.L)
	if err != nil {
		return Value{}, err
	}
	// Short-circuit logical operators keep the cost model honest for
	// guard-heavy loops.
	if x.Op == ir.OpAnd && !l.B {
		in.charge(in.Cost.Compare)
		return BoolVal(false), nil
	}
	if x.Op == ir.OpOr && l.B {
		in.charge(in.Cost.Compare)
		return BoolVal(true), nil
	}
	r, err := in.eval(fr, x.R)
	if err != nil {
		return Value{}, err
	}
	switch x.Op {
	case ir.OpAnd:
		in.charge(in.Cost.Compare)
		return BoolVal(l.B && r.B), nil
	case ir.OpOr:
		in.charge(in.Cost.Compare)
		return BoolVal(l.B || r.B), nil
	}
	if x.Op.IsRelational() {
		in.charge(in.Cost.Compare)
		if l.Kind == ir.TypeInteger && r.Kind == ir.TypeInteger {
			return BoolVal(intRel(x.Op, l.I, r.I)), nil
		}
		return BoolVal(floatRel(x.Op, l.AsFloat(), r.AsFloat())), nil
	}
	bothInt := l.Kind == ir.TypeInteger && r.Kind == ir.TypeInteger
	switch x.Op {
	case ir.OpAdd:
		in.charge(in.Cost.AddSub)
		if bothInt {
			return IntVal(l.I + r.I), nil
		}
		return RealVal(l.AsFloat() + r.AsFloat()), nil
	case ir.OpSub:
		in.charge(in.Cost.AddSub)
		if bothInt {
			return IntVal(l.I - r.I), nil
		}
		return RealVal(l.AsFloat() - r.AsFloat()), nil
	case ir.OpMul:
		in.charge(in.Cost.Mul)
		if bothInt {
			return IntVal(l.I * r.I), nil
		}
		return RealVal(l.AsFloat() * r.AsFloat()), nil
	case ir.OpDiv:
		if bothInt {
			if r.I == 0 {
				return Value{}, fmt.Errorf("interp: integer division by zero")
			}
			// Division by a power of two is a shift after code
			// generation (the strength reduction every 1996 back end
			// performed).
			if r.I > 0 && r.I&(r.I-1) == 0 {
				in.charge(in.Cost.AddSub)
			} else {
				in.charge(in.Cost.Div)
			}
			return IntVal(l.I / r.I), nil
		}
		in.charge(in.Cost.Div)
		return RealVal(l.AsFloat() / r.AsFloat()), nil
	case ir.OpPow:
		if bothInt {
			// Integer powers compile to shifts (base 2) or repeated
			// multiplication.
			switch {
			case l.I == 2 && r.I >= 0:
				in.charge(in.Cost.AddSub)
			case r.I >= 0 && r.I <= 8:
				n := r.I - 1
				if n < 1 {
					n = 1
				}
				in.charge(in.Cost.Mul * n)
			default:
				in.charge(in.Cost.Pow)
			}
			return IntVal(rt.IPow(l.I, r.I)), nil
		}
		in.charge(in.Cost.Pow)
		return RealVal(math.Pow(l.AsFloat(), r.AsFloat())), nil
	}
	return Value{}, fmt.Errorf("interp: unsupported operator %v", x.Op)
}

func intRel(op ir.BinOp, l, r int64) bool {
	switch op {
	case ir.OpEq:
		return l == r
	case ir.OpNe:
		return l != r
	case ir.OpLt:
		return l < r
	case ir.OpLe:
		return l <= r
	case ir.OpGt:
		return l > r
	case ir.OpGe:
		return l >= r
	}
	return false
}

func floatRel(op ir.BinOp, l, r float64) bool {
	switch op {
	case ir.OpEq:
		return l == r
	case ir.OpNe:
		return l != r
	case ir.OpLt:
		return l < r
	case ir.OpLe:
		return l <= r
	case ir.OpGt:
		return l > r
	case ir.OpGe:
		return l >= r
	}
	return false
}

// evalCall evaluates intrinsics and user function calls.
//
// The arguments go on in.args, above those of the calls being
// evaluated around this one; a user function reads them before its
// body can push more.
func (in *Interp) evalCall(fr *frame, x *ir.Call) (Value, error) {
	base := len(in.args)
	defer func() { in.args = in.args[:base] }()
	for _, a := range x.Args {
		v, err := in.eval(fr, a)
		if err != nil {
			return Value{}, err
		}
		in.args = append(in.args, v)
	}
	args := in.args[base:]
	in.charge(in.Cost.Intrinsic)
	switch x.Name {
	case "MOD":
		if len(args) != 2 {
			break
		}
		if args[0].Kind == ir.TypeInteger && args[1].Kind == ir.TypeInteger {
			if args[1].I == 0 {
				return Value{}, fmt.Errorf("interp: MOD by zero")
			}
			return IntVal(args[0].I % args[1].I), nil
		}
		return RealVal(math.Mod(args[0].AsFloat(), args[1].AsFloat())), nil
	case "MAX", "AMAX1", "MAX0":
		return reduceArgs("MAX", args), nil
	case "MIN", "AMIN1", "MIN0":
		return reduceArgs("MIN", args), nil
	case "ABS", "IABS":
		if args[0].Kind == ir.TypeInteger {
			return IntVal(rt.IAbs(args[0].I)), nil
		}
		return RealVal(math.Abs(args[0].F)), nil
	case "SQRT":
		return RealVal(math.Sqrt(args[0].AsFloat())), nil
	case "EXP":
		return RealVal(math.Exp(args[0].AsFloat())), nil
	case "LOG":
		return RealVal(math.Log(args[0].AsFloat())), nil
	case "SIN":
		return RealVal(math.Sin(args[0].AsFloat())), nil
	case "COS":
		return RealVal(math.Cos(args[0].AsFloat())), nil
	case "TAN":
		return RealVal(math.Tan(args[0].AsFloat())), nil
	case "ATAN":
		return RealVal(math.Atan(args[0].AsFloat())), nil
	case "INT":
		return IntVal(args[0].AsInt()), nil
	case "NINT":
		return IntVal(int64(math.Round(args[0].AsFloat()))), nil
	case "FLOAT", "REAL", "DBLE":
		return RealVal(args[0].AsFloat()), nil
	case "SIGN":
		if len(args) == 2 {
			return RealVal(rt.Sign(args[0].AsFloat(), args[1].AsFloat())), nil
		}
	}
	// User function.
	if u := in.Prog.Unit(x.Name); u != nil && u.Kind == ir.UnitFunction {
		return in.callFunction(fr, u, x.Args, args)
	}
	return Value{}, fmt.Errorf("interp: unknown function %s", x.Name)
}

func reduceArgs(op string, args []Value) Value {
	out := args[0]
	for _, a := range args[1:] {
		out = combine(op, out, a)
	}
	return out
}

// callFunction invokes a user FUNCTION; its result is the value of the
// variable named after the function.
func (in *Interp) callFunction(fr *frame, u *ir.ProgramUnit, argExprs []ir.Expr, argVals []Value) (Value, error) {
	in.depth++
	defer func() { in.depth-- }()
	if in.depth > 200 {
		return Value{}, fmt.Errorf("interp: call depth limit")
	}
	in.charge(in.Cost.CallOverhead)
	cells := map[string]*cell{}
	arrays := map[string]*Array{}
	for i, formal := range u.Formals {
		fsym := u.Symbols.Lookup(formal)
		if av, isVar := argExprs[i].(*ir.VarRef); isVar {
			if arr, isArr := fr.arrays[av.Name]; isArr {
				arrays[formal] = arr
				continue
			}
			cells[formal] = fr.getCell(av.Name, fr.unit)
			continue
		}
		kind := ir.TypeReal
		if fsym != nil {
			kind = fsym.Type
		}
		cc := &cell{kind: kind}
		cc.store(argVals[i])
		cells[formal] = cc
	}
	nfr, err := in.newFrame(u, cells, arrays)
	if err != nil {
		return Value{}, err
	}
	if _, err := in.execBlock(nfr, u.Body); err != nil {
		return Value{}, err
	}
	return nfr.getCell(u.Name, u).load(), nil
}
