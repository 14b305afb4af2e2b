package codegen

import (
	"fmt"
	"strings"

	"polaris/internal/ir"
)

// ---- statements ----

// blockTerminates reports whether control can never reach past the
// block (used to truncate unreachable tail statements, which both
// matches the interpreter's control flow and keeps `go vet` clean).
func blockTerminates(b *ir.Block) bool {
	for _, s := range b.Stmts {
		if stmtTerminates(s) {
			return true
		}
	}
	return false
}

func stmtTerminates(s ir.Stmt) bool {
	switch x := s.(type) {
	case *ir.ReturnStmt, *ir.StopStmt:
		return true
	case *ir.IfStmt:
		return x.Else != nil && blockTerminates(x.Then) && blockTerminates(x.Else)
	}
	return false
}

func (g *goEmitter) block(c *uctx, b *ir.Block) {
	for _, s := range b.Stmts {
		g.stmt(c, s)
		if stmtTerminates(s) {
			return
		}
	}
}

func (g *goEmitter) stmt(c *uctx, s ir.Stmt) {
	switch x := s.(type) {
	case *ir.CommentStmt, *ir.ContinueStmt:
	case *ir.AssignStmt:
		g.assign(c, x)
	case *ir.IfStmt:
		g.open("if %s {", g.exprB(c, x.Cond))
		g.block(c, x.Then)
		if x.Else != nil {
			g.ind--
			g.open("} else {")
			g.block(c, x.Else)
		}
		g.close("}")
	case *ir.DoStmt:
		g.doStmt(c, x)
	case *ir.CallStmt:
		g.w("%s", g.subrCall(c, x))
	case *ir.ReturnStmt:
		g.terminator(c, false)
	case *ir.StopStmt:
		g.terminator(c, true)
	default:
		refuse("unsupported statement %T", s)
	}
}

// terminator lowers RETURN and STOP per unit kind, matching the
// interpreter's control propagation: a function returns its result in
// both cases (STOP control is discarded by callFunction); STOP at the
// main level is a clean program stop; STOP in a subroutine aborts the
// run.
func (g *goEmitter) terminator(c *uctx, stop bool) {
	switch c.u.Kind {
	case ir.UnitFunction:
		g.w("return %s", c.u.Name)
	case ir.UnitSubroutine:
		if stop {
			g.w("panic(%q)", "interp: STOP reached in "+c.u.Name)
		} else {
			g.w("return")
		}
	default:
		g.w("return")
	}
}

func (g *goEmitter) scalar(c *uctx, name string) scEntry {
	if arraySym(c.u, name) != nil {
		refuse("array %s referenced as a scalar", name)
	}
	e, ok := c.sc[name]
	if !ok {
		refuse("no binding for scalar %s", name)
	}
	return e
}

func (g *goEmitter) array(c *uctx, name string) arEntry {
	e, ok := c.ar[name]
	if !ok {
		refuse("%s is not an array here", name)
	}
	return e
}

// ixCall renders the bounds-checked flat-index computation for one
// subscripted reference against the array variable av.
func (g *goEmitter) ixCall(c *uctx, av, name string, subs []ir.Expr) string {
	if len(subs) < 1 || len(subs) > 7 {
		refuse("array %s subscripted with %d subscripts", name, len(subs))
	}
	parts := make([]string, 0, len(subs))
	for _, s := range subs {
		parts = append(parts, g.exprI(c, s))
	}
	return fmt.Sprintf("ix%d(&%s.h, %q, %s)", len(subs), av, name, strings.Join(parts, ", "))
}

func elemField(isInt bool) string {
	if isInt {
		return "i"
	}
	return "f"
}

func elemKind(isInt bool) gKind {
	if isInt {
		return gI
	}
	return gF
}

func (g *goEmitter) assign(c *uctx, s *ir.AssignStmt) {
	if ri := c.red[s]; ri != nil {
		g.redLog(c, s, ri)
		return
	}
	switch lhs := s.LHS.(type) {
	case *ir.VarRef:
		e := g.scalar(c, lhs.Name)
		rhs, rk := g.expr(c, s.RHS)
		g.w("%s = %s", e.lv, convTo(e.k, rhs, rk))
	case *ir.ArrayRef:
		// The interpreter evaluates the RHS before the LHS subscripts;
		// the temporary pins that order.
		rhs, rk := g.expr(c, s.RHS)
		t := g.nt("v")
		g.w("%s := %s", t, rhs)
		if sp := c.spec[lhs.Name]; sp != nil {
			a := g.array(c, lhs.Name)
			g.w("%s%s(&%s, %s, %s, %s, %s)",
				"ls", strings.ToUpper(elemField(a.isInt)), sp.copyVar, sp.shVar, sp.iter,
				g.ixCall(c, sp.copyVar, lhs.Name, lhs.Subs), convTo(elemKind(a.isInt), t, rk))
			return
		}
		a := g.array(c, lhs.Name)
		g.w("%s.%s[%s] = %s", a.ex, elemField(a.isInt),
			g.ixCall(c, a.ex, lhs.Name, lhs.Subs), convTo(elemKind(a.isInt), t, rk))
	default:
		refuse("unsupported assignment target %T", s.LHS)
	}
}

// ---- expressions ----

func (g *goEmitter) expr(c *uctx, e ir.Expr) (string, gKind) {
	switch x := e.(type) {
	case *ir.ConstInt:
		return fmt.Sprintf("int64(%d)", x.Val), gI
	case *ir.ConstReal:
		return goFloatLit(x.Val), gF
	case *ir.ConstLogical:
		if x.Val {
			return "true", gB
		}
		return "false", gB
	case *ir.VarRef:
		en := g.scalar(c, x.Name)
		return en.lv, en.k
	case *ir.ArrayRef:
		a := g.array(c, x.Name)
		if sp := c.spec[x.Name]; sp != nil {
			return fmt.Sprintf("lg%s(&%s, %s, %s, %s)",
				strings.ToUpper(elemField(a.isInt)), sp.copyVar, sp.shVar, sp.iter,
				g.ixCall(c, sp.copyVar, x.Name, x.Subs)), elemKind(a.isInt)
		}
		return fmt.Sprintf("%s.%s[%s]", a.ex, elemField(a.isInt),
			g.ixCall(c, a.ex, x.Name, x.Subs)), elemKind(a.isInt)
	case *ir.Binary:
		return g.binary(c, x)
	case *ir.Unary:
		s, k := g.expr(c, x.X)
		switch x.Op {
		case ir.OpNeg:
			if k == gB {
				refuse("negation of a logical value")
			}
			return "(-" + s + ")", k
		case ir.OpNot:
			if k != gB {
				refuse(".NOT. of a non-logical value")
			}
			return "(!" + s + ")", gB
		}
		refuse("unsupported unary operator")
	case *ir.Call:
		return g.call(c, x)
	}
	refuse("unsupported expression %T", e)
	return "", gF
}

func (g *goEmitter) exprI(c *uctx, e ir.Expr) string {
	s, k := g.expr(c, e)
	switch k {
	case gI:
		return s
	case gF:
		return "int64(" + s + ")"
	}
	refuse("logical value in integer context")
	return ""
}

func asF(s string, k gKind) string {
	switch k {
	case gF:
		return s
	case gI:
		return "float64(" + s + ")"
	}
	refuse("logical value in numeric context")
	return ""
}

func (g *goEmitter) exprB(c *uctx, e ir.Expr) string {
	s, k := g.expr(c, e)
	if k != gB {
		refuse("non-logical value in logical context")
	}
	return s
}

func (g *goEmitter) binary(c *uctx, x *ir.Binary) (string, gKind) {
	if x.Op.IsLogical() {
		l := g.exprB(c, x.L)
		r := g.exprB(c, x.R)
		op := "&&"
		if x.Op == ir.OpOr {
			op = "||"
		}
		// Go's && and || short-circuit exactly as evalBinary does.
		return "(" + l + " " + op + " " + r + ")", gB
	}
	ls, lk := g.expr(c, x.L)
	rs, rk := g.expr(c, x.R)
	if lk == gB || rk == gB {
		refuse("logical operand of %s", x.Op)
	}
	bothInt := lk == gI && rk == gI
	if x.Op.IsRelational() {
		var op string
		switch x.Op {
		case ir.OpEq:
			op = "=="
		case ir.OpNe:
			op = "!="
		case ir.OpLt:
			op = "<"
		case ir.OpLe:
			op = "<="
		case ir.OpGt:
			op = ">"
		case ir.OpGe:
			op = ">="
		}
		if bothInt {
			return "(" + ls + " " + op + " " + rs + ")", gB
		}
		return "(" + asF(ls, lk) + " " + op + " " + asF(rs, rk) + ")", gB
	}
	switch x.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul:
		op := map[ir.BinOp]string{ir.OpAdd: "+", ir.OpSub: "-", ir.OpMul: "*"}[x.Op]
		if bothInt {
			return "(" + ls + " " + op + " " + rs + ")", gI
		}
		return "(" + asF(ls, lk) + " " + op + " " + asF(rs, rk) + ")", gF
	case ir.OpDiv:
		if bothInt {
			// Go's truncating integer division and divide-by-zero panic
			// mirror the interpreter's semantics (its error aborts the
			// run just as the panic does).
			return "(" + ls + " / " + rs + ")", gI
		}
		return "(" + asF(ls, lk) + " / " + asF(rs, rk) + ")", gF
	case ir.OpPow:
		if bothInt {
			return "ipow(" + ls + ", " + rs + ")", gI
		}
		return "math.Pow(" + asF(ls, lk) + ", " + asF(rs, rk) + ")", gF
	}
	refuse("unsupported binary operator %s", x.Op)
	return "", gF
}

// intrinsicArity reports whether a Call with this name and arity
// dispatches to an interpreter intrinsic (MOD and SIGN fall through to
// user units at other arities, exactly as evalCall does).
func intrinsicCall(name string, arity int) bool {
	switch name {
	case "MAX", "AMAX1", "MAX0", "MIN", "AMIN1", "MIN0",
		"ABS", "IABS", "SQRT", "EXP", "LOG", "SIN", "COS", "TAN", "ATAN",
		"INT", "NINT", "FLOAT", "REAL", "DBLE":
		return true
	case "MOD", "SIGN":
		return arity == 2
	}
	return false
}

func (g *goEmitter) call(c *uctx, x *ir.Call) (string, gKind) {
	if intrinsicCall(x.Name, len(x.Args)) {
		return g.intrinsic(c, x)
	}
	return g.userCall(c, x)
}

func (g *goEmitter) intrinsic(c *uctx, x *ir.Call) (string, gKind) {
	args := make([]string, len(x.Args))
	kinds := make([]gKind, len(x.Args))
	for i, a := range x.Args {
		args[i], kinds[i] = g.expr(c, a)
		if kinds[i] == gB {
			refuse("logical argument to intrinsic %s", x.Name)
		}
	}
	fold := func(fn2i, fn2f string) (string, gKind) {
		if len(args) == 0 {
			refuse("%s with no arguments", x.Name)
		}
		k := kinds[0]
		for _, ak := range kinds {
			if ak != k {
				// The interpreter's combine picks a dynamically-kinded
				// winner; a mixed-kind extremum has no static type.
				refuse("mixed integer/real arguments to %s", x.Name)
			}
		}
		fn := fn2f
		if k == gI {
			fn = fn2i
		}
		out := args[0]
		for _, a := range args[1:] {
			out = fn + "(" + out + ", " + a + ")"
		}
		return out, k
	}
	one := func() (string, gKind) {
		if len(args) != 1 {
			// evalCall evaluates and discards extra arguments; refusing
			// the degenerate arity keeps emission simple and exact.
			refuse("%s with %d arguments", x.Name, len(args))
		}
		return args[0], kinds[0]
	}
	switch x.Name {
	case "MAX", "AMAX1", "MAX0":
		return fold("imaxv", "fmaxv")
	case "MIN", "AMIN1", "MIN0":
		return fold("iminv", "fminv")
	case "ABS", "IABS":
		s, k := one()
		if k == gI {
			return "iabs(" + s + ")", gI
		}
		return "math.Abs(" + s + ")", gF
	case "SQRT", "EXP", "LOG", "SIN", "COS", "TAN", "ATAN":
		fn := map[string]string{"SQRT": "Sqrt", "EXP": "Exp", "LOG": "Log",
			"SIN": "Sin", "COS": "Cos", "TAN": "Tan", "ATAN": "Atan"}[x.Name]
		s, k := one()
		return "math." + fn + "(" + asF(s, k) + ")", gF
	case "INT":
		s, k := one()
		if k == gI {
			return s, gI
		}
		return "int64(" + s + ")", gI
	case "NINT":
		s, k := one()
		return "int64(math.Round(" + asF(s, k) + "))", gI
	case "FLOAT", "REAL", "DBLE":
		s, k := one()
		return asF(s, k), gF
	case "MOD":
		if kinds[0] == gI && kinds[1] == gI {
			return "(" + args[0] + " % " + args[1] + ")", gI
		}
		return "math.Mod(" + asF(args[0], kinds[0]) + ", " + asF(args[1], kinds[1]) + ")", gF
	case "SIGN":
		return "signf(" + asF(args[0], kinds[0]) + ", " + asF(args[1], kinds[1]) + ")", gF
	}
	refuse("unhandled intrinsic %s", x.Name)
	return "", gF
}

// actualArgs renders the argument list for a user call following the
// interpreter's binding rules. Functions copy expression actuals in
// (including array elements); subroutines alias array elements and
// view array-element actuals as windows. Bindings whose dynamic kind
// in the interpreter would differ from the static declaration are
// refused.
func (g *goEmitter) actualArgs(c *uctx, name string, args []ir.Expr, isFunc bool) string {
	callee := g.p.Unit(name)
	if callee == nil {
		refuse("call to unknown unit %s", name)
	}
	if isFunc && callee.Kind != ir.UnitFunction {
		refuse("%s used as a function but declared %s", name, callee.Kind)
	}
	if !isFunc && callee.Kind != ir.UnitSubroutine {
		refuse("CALL to %s which is declared %s", name, callee.Kind)
	}
	if len(args) != len(callee.Formals) {
		refuse("call to %s with %d args, %d formals", name, len(args), len(callee.Formals))
	}
	parts := []string{c.par}
	for i, a := range args {
		f := callee.Formals[i]
		fArr := arraySym(callee, f)
		switch actual := a.(type) {
		case *ir.VarRef:
			if callerArr := arraySym(c.u, actual.Name); callerArr != nil {
				if fArr == nil {
					refuse("array %s passed to scalar formal %s of %s", actual.Name, f, name)
				}
				if (fArr.Type == ir.TypeInteger) != (callerArr.Type == ir.TypeInteger) {
					refuse("element-kind mismatch passing %s to %s of %s", actual.Name, f, name)
				}
				if c.spec[actual.Name] != nil {
					refuse("speculative array %s passed to a call", actual.Name)
				}
				parts = append(parts, g.array(c, actual.Name).ex)
				continue
			}
			if fArr != nil {
				refuse("scalar %s passed to array formal %s of %s", actual.Name, f, name)
			}
			// Scalar VarRef actuals alias the caller's cell: stores in
			// the callee convert by the caller's kind, so the kinds must
			// agree for the static signature to be exact.
			e := g.scalar(c, actual.Name)
			if e.k != scalarKind(callee, f) {
				refuse("kind mismatch aliasing %s to formal %s of %s", actual.Name, f, name)
			}
			parts = append(parts, e.addr)
		case *ir.ArrayRef:
			ae := g.array(c, actual.Name)
			if c.spec[actual.Name] != nil {
				refuse("speculative array %s passed to a call", actual.Name)
			}
			if fArr != nil {
				// Sequence association: the subroutine sees a rank-1
				// window from the element. Functions copy a scalar cell
				// in instead, which then fails array use in the callee.
				if isFunc {
					refuse("array element passed to array formal %s of function %s", f, name)
				}
				if (fArr.Type == ir.TypeInteger) != ae.isInt {
					refuse("element-kind mismatch in window of %s for %s", actual.Name, name)
				}
				parts = append(parts, fmt.Sprintf("window(%s, %s)",
					ae.ex, g.ixCall(c, ae.ex, actual.Name, actual.Subs)))
				continue
			}
			fk := scalarKind(callee, f)
			if isFunc {
				// Copy-in: the cell's initial value keeps the element's
				// kind, so it must match the formal's.
				if elemKind(ae.isInt) != fk {
					refuse("kind mismatch copying element of %s to formal %s of %s", actual.Name, f, name)
				}
				s, k := g.expr(c, a)
				parts = append(parts, ptrHelper(fk)+"("+convTo(fk, s, k)+")")
				continue
			}
			// Subroutines alias the element: loads and stores go through
			// the array's element kind regardless of the formal's.
			if elemKind(ae.isInt) != fk {
				refuse("kind mismatch aliasing element of %s to formal %s of %s", actual.Name, f, name)
			}
			parts = append(parts, fmt.Sprintf("&%s.%s[%s]", ae.ex, elemField(ae.isInt),
				g.ixCall(c, ae.ex, actual.Name, actual.Subs)))
		default:
			if fArr != nil {
				refuse("expression passed to array formal %s of %s", f, name)
			}
			fk := scalarKind(callee, f)
			s, k := g.expr(c, a)
			if k != fk {
				// Copy-in cells surface the stored kind on first load.
				refuse("kind mismatch copying actual %d to formal %s of %s", i+1, f, name)
			}
			parts = append(parts, ptrHelper(fk)+"("+s+")")
		}
	}
	return "u_" + name + "(" + strings.Join(parts, ", ") + ")"
}

func ptrHelper(k gKind) string {
	switch k {
	case gI:
		return "ip"
	case gB:
		return "bp"
	}
	return "fp"
}

func (g *goEmitter) userCall(c *uctx, x *ir.Call) (string, gKind) {
	call := g.actualArgs(c, x.Name, x.Args, true)
	return call, scalarKind(g.p.Unit(x.Name), x.Name)
}

func (g *goEmitter) subrCall(c *uctx, x *ir.CallStmt) string {
	return g.actualArgs(c, x.Name, x.Args, false)
}
