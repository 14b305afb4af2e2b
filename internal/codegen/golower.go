package codegen

import (
	"strconv"

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
		g.indent()
		g.put("if ")
		g.exprB(c, x.Cond)
		g.put(" {\n")
		g.ind++
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
		g.indent()
		g.actualArgs(c, x.Name, x.Args, false)
		g.put("\n")
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

// scalar is name's scalar binding. No array symbol of the unit has one
// (the unit's bindings and a worker's privates leave arrays out), so a
// bound name needs no symbol lookup.
func (g *goEmitter) scalar(c *uctx, name string) scEntry {
	e, ok := c.scalarAt(name)
	if !ok {
		if arraySym(c.u, name) != nil {
			refuse("array %s referenced as a scalar", name)
		}
		refuse("no binding for scalar %s", name)
	}
	return e
}

func (g *goEmitter) array(c *uctx, name string) arEntry {
	e, ok := c.arrayAt(name)
	if !ok {
		refuse("%s is not an array here", name)
	}
	return e
}

// ixCall writes the bounds-checked flat-index computation for one
// subscripted reference against the array variable av.
func (g *goEmitter) ixCall(c *uctx, av, name string, subs []ir.Expr) {
	if len(subs) < 1 || len(subs) > 7 {
		refuse("array %s subscripted with %d subscripts", name, len(subs))
	}
	g.put("ix")
	g.int(int64(len(subs)))
	g.put("(&", av, ".h, ")
	g.scratch = strconv.AppendQuote(g.scratch[:0], name)
	g.b.Write(g.scratch)
	for _, s := range subs {
		g.put(", ")
		g.exprI(c, s)
	}
	g.put(")")
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
	if ri, ok := anyRedStmt(c.reds, s); ok {
		g.redLog(c, s, ri)
		return
	}
	switch lhs := s.LHS.(type) {
	case *ir.VarRef:
		e := g.scalar(c, lhs.Name)
		g.indent()
		g.put(e.lv, " = ")
		g.store(c, s.RHS, e.k)
		g.put("\n")
	case *ir.ArrayRef:
		// The interpreter evaluates the RHS before the LHS subscripts;
		// the temporary pins that order.
		t := g.nt("v")
		g.indent()
		g.put(t, " := ")
		rk := g.x(c, s.RHS)
		g.put("\n")
		a := g.array(c, lhs.Name)
		g.indent()
		if sp := c.spec[lhs.Name]; sp != nil {
			g.specOpen("ls", a.isInt, sp)
			g.ixCall(c, sp.copyVar, lhs.Name, lhs.Subs)
			g.put(", ")
			g.convVar(elemKind(a.isInt), t, rk)
			g.put(")\n")
			return
		}
		g.put(a.ex, ".", elemField(a.isInt), "[")
		g.ixCall(c, a.ex, lhs.Name, lhs.Subs)
		g.put("] = ")
		g.convVar(elemKind(a.isInt), t, rk)
		g.put("\n")
	default:
		refuse("unsupported assignment target %T", s.LHS)
	}
}

// specOpen writes the head of a speculative access through the
// runtime, a store (op "ls") or a load ("lg") by element kind: its
// name, then the per-worker copy, shadow and iteration arguments.
func (g *goEmitter) specOpen(op string, isInt bool, sp *specInfo) {
	kind := "F"
	if isInt {
		kind = "I"
	}
	g.put(op, kind, "(&", sp.copyVar, ", ", sp.shVar, ", ", sp.iter, ", ")
}

// ---- expressions ----
//
// Expressions are written straight into the buffer: x writes one and
// returns its kind. Where a conversion wraps an expression, the wrapper
// is written first, so the expression's kind comes from kindOf, which
// reads the tree without writing; x's own checks raise every refusal,
// in the order the tree is written.

func (g *goEmitter) x(c *uctx, e ir.Expr) gKind {
	switch x := e.(type) {
	case *ir.ConstInt:
		g.put("int64(")
		g.int(x.Val)
		g.put(")")
		return gI
	case *ir.ConstReal:
		g.floatLit(x.Val)
		return gF
	case *ir.ConstLogical:
		if x.Val {
			g.put("true")
		} else {
			g.put("false")
		}
		return gB
	case *ir.VarRef:
		en := g.scalar(c, x.Name)
		g.put(en.lv)
		return en.k
	case *ir.ArrayRef:
		a := g.array(c, x.Name)
		if sp := c.spec[x.Name]; sp != nil {
			g.specOpen("lg", a.isInt, sp)
			g.ixCall(c, sp.copyVar, x.Name, x.Subs)
			g.put(")")
			return elemKind(a.isInt)
		}
		g.put(a.ex, ".", elemField(a.isInt), "[")
		g.ixCall(c, a.ex, x.Name, x.Subs)
		g.put("]")
		return elemKind(a.isInt)
	case *ir.Binary:
		return g.binary(c, x)
	case *ir.Unary:
		switch x.Op {
		case ir.OpNeg:
			g.put("(-")
			k := g.x(c, x.X)
			g.put(")")
			if k == gB {
				refuse("negation of a logical value")
			}
			return k
		case ir.OpNot:
			g.put("(!")
			k := g.x(c, x.X)
			g.put(")")
			if k != gB {
				refuse(".NOT. of a non-logical value")
			}
			return gB
		}
		g.x(c, x.X)
		refuse("unsupported unary operator")
	case *ir.Call:
		if intrinsicCall(x.Name, len(x.Args)) {
			return g.intrinsic(c, x)
		}
		g.actualArgs(c, x.Name, x.Args, true)
		return scalarKind(g.p.Unit(x.Name), x.Name)
	}
	refuse("unsupported expression %T", e)
	return gF
}

// kindOf is the kind x returns for e, read without writing anything.
// Where x would refuse e, it is any kind: x's refusal comes first.
func (g *goEmitter) kindOf(c *uctx, e ir.Expr) gKind {
	switch x := e.(type) {
	case *ir.ConstInt:
		return gI
	case *ir.ConstLogical:
		return gB
	case *ir.VarRef:
		e, _ := c.scalarAt(x.Name)
		return e.k
	case *ir.ArrayRef:
		a, _ := c.arrayAt(x.Name)
		return elemKind(a.isInt)
	case *ir.Binary:
		if x.Op.IsLogical() || x.Op.IsRelational() {
			return gB
		}
		if g.kindOf(c, x.L) == gI && g.kindOf(c, x.R) == gI {
			return gI
		}
	case *ir.Unary:
		if x.Op == ir.OpNot {
			return gB
		}
		return g.kindOf(c, x.X)
	case *ir.Call:
		if !intrinsicCall(x.Name, len(x.Args)) {
			if u := g.p.Unit(x.Name); u != nil {
				return scalarKind(u, x.Name)
			}
			return gF
		}
		switch x.Name {
		case "INT", "NINT":
			return gI
		case "MAX", "AMAX1", "MAX0", "MIN", "AMIN1", "MIN0", "ABS", "IABS":
			if len(x.Args) > 0 && g.kindOf(c, x.Args[0]) == gI {
				return gI
			}
		case "MOD":
			if g.kindOf(c, x.Args[0]) == gI && g.kindOf(c, x.Args[1]) == gI {
				return gI
			}
		}
	}
	return gF
}

// conv writes e converted to kind k by the interpreter's cell.store
// rules: int64(...) around a real where k is integer, float64(...)
// around an integer where k is real (AsInt truncates toward zero; Go's
// float-to-int conversion is the same operation the interpreter runs).
// It returns e's own kind; a logical one, or any kind where k is
// logical, is the caller's to refuse.
func (g *goEmitter) conv(c *uctx, e ir.Expr, k gKind) gKind {
	if v, ok := e.(*ir.VarRef); ok {
		// The commonest operand: one lookup gives kind and text.
		en := g.scalar(c, v.Name)
		if en.k != k && en.k != gB && k != gB {
			g.put(goType(k), "(", en.lv, ")")
		} else {
			g.put(en.lv)
		}
		return en.k
	}
	return g.convFrom(c, e, g.kindOf(c, e), k)
}

// convFrom is conv where e's kind, ek, is already read.
func (g *goEmitter) convFrom(c *uctx, e ir.Expr, ek, k gKind) gKind {
	wrap := ek != k && ek != gB && k != gB
	if wrap {
		g.put(goType(k), "(")
	}
	rk := g.x(c, e)
	if wrap {
		g.put(")")
	}
	if rk != ek {
		panic("codegen: kindOf disagrees with the lowering")
	}
	return rk
}

// store writes e converted to the storage kind k.
func (g *goEmitter) store(c *uctx, e ir.Expr, k gKind) {
	if rk := g.conv(c, e, k); rk != k && (rk == gB || k == gB) {
		refuse("logical/numeric kind mismatch in assignment")
	}
}

// convVar writes the variable v, of kind vk, converted to the storage
// kind k.
func (g *goEmitter) convVar(k gKind, v string, vk gKind) {
	switch {
	case k == vk:
		g.put(v)
	case k == gF && vk == gI, k == gI && vk == gF:
		g.put(goType(k), "(", v, ")")
	default:
		refuse("logical/numeric kind mismatch in assignment")
	}
}

func (g *goEmitter) exprI(c *uctx, e ir.Expr) {
	if g.conv(c, e, gI) == gB {
		refuse("logical value in integer context")
	}
}

func (g *goEmitter) exprB(c *uctx, e ir.Expr) {
	if g.x(c, e) != gB {
		refuse("non-logical value in logical context")
	}
}

// binSeps spells each non-logical binary operator between its
// operands, written "(L sep R)". Go's truncating integer division and
// divide-by-zero panic mirror the interpreter's semantics (its error
// aborts the run just as the panic does). OpPow is a call instead:
// ipow(L, R), or math.Pow(L, R) unless both operands are integers.
var binSeps = [...]string{ir.OpAdd: " + ", ir.OpSub: " - ", ir.OpMul: " * ", ir.OpDiv: " / ", ir.OpPow: ", ",
	ir.OpEq: " == ", ir.OpNe: " != ", ir.OpLt: " < ", ir.OpLe: " <= ", ir.OpGt: " > ", ir.OpGe: " >= "}

func (g *goEmitter) binary(c *uctx, x *ir.Binary) gKind {
	if x.Op.IsLogical() {
		g.put("(")
		g.exprB(c, x.L)
		if x.Op == ir.OpOr {
			g.put(" || ")
		} else {
			g.put(" && ")
		}
		// Go's && and || short-circuit exactly as evalBinary does.
		g.exprB(c, x.R)
		g.put(")")
		return gB
	}
	// Mixed integer/real operands both go through float64.
	lk, rk := g.kindOf(c, x.L), g.kindOf(c, x.R)
	bothInt := lk == gI && rk == gI
	k := gF
	if bothInt {
		k = gI
	}
	open, sep := "(", ""
	if int(x.Op) < len(binSeps) {
		sep = binSeps[x.Op]
	}
	if x.Op == ir.OpPow {
		open = "math.Pow("
		if bothInt {
			open = "ipow("
		}
	}
	g.put(open)
	g.convFrom(c, x.L, lk, k)
	g.put(sep)
	g.convFrom(c, x.R, rk, k)
	g.put(")")
	if lk == gB || rk == gB {
		refuse("logical operand of %s", x.Op)
	}
	if sep == "" {
		refuse("unsupported binary operator %s", x.Op)
	}
	if x.Op.IsRelational() {
		return gB
	}
	return k
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

// mathCalls spells the intrinsics that are one math function of a real.
var mathCalls = map[string]string{"SQRT": "math.Sqrt(", "EXP": "math.Exp(", "LOG": "math.Log(",
	"SIN": "math.Sin(", "COS": "math.Cos(", "TAN": "math.Tan(", "ATAN": "math.Atan("}

// intrinsic writes an intrinsic call: open, the arguments (each
// converted to argKind, or as they are) joined by sep, then closing.
// MAX and MIN fold left, fn(fn(a, b), c). The checks on the argument
// list come after every argument is written, as the interpreter
// evaluates them all first.
func (g *goEmitter) intrinsic(c *uctx, x *ir.Call) gKind {
	args := x.Args
	var k0 gKind
	if len(args) > 0 {
		k0 = g.kindOf(c, args[0])
	}
	open, sep, closing := "", ", ", ")"
	argKind, asIs, fold := gF, false, ""
	kind := gF // the call's, where no argument is refused
	switch x.Name {
	case "MAX", "AMAX1", "MAX0":
		fold, closing, kind = "fmaxv(", "", k0
		if k0 == gI {
			fold = "imaxv("
		}
	case "MIN", "AMIN1", "MIN0":
		fold, closing, kind = "fminv(", "", k0
		if k0 == gI {
			fold = "iminv("
		}
	case "ABS", "IABS":
		open, asIs = "math.Abs(", true
		if k0 == gI {
			open, kind = "iabs(", gI
		}
	case "SQRT", "EXP", "LOG", "SIN", "COS", "TAN", "ATAN":
		open = mathCalls[x.Name]
	case "INT":
		argKind, closing, kind = gI, "", gI
	case "NINT":
		open, closing, kind = "int64(math.Round(", "))", gI
	case "FLOAT", "REAL", "DBLE":
		closing = ""
	case "MOD":
		open = "math.Mod("
		if k0 == gI && g.kindOf(c, args[1]) == gI {
			open, sep, asIs, kind = "(", " % ", true, gI
		}
	case "SIGN":
		open = "signf("
	default:
		refuse("unhandled intrinsic %s", x.Name)
	}
	if fold != "" {
		for range args[1:] {
			g.put(fold)
		}
	}
	g.put(open)
	mixed := false
	for i, a := range args {
		if i > 0 {
			g.put(sep)
		}
		var k gKind
		if asIs || fold != "" {
			k = g.x(c, a)
		} else {
			k = g.conv(c, a, argKind)
		}
		if k == gB {
			refuse("logical argument to intrinsic %s", x.Name)
		}
		if fold != "" && i > 0 {
			g.put(")")
			mixed = mixed || k != k0
		}
	}
	g.put(closing)
	switch {
	case fold != "" && len(args) == 0:
		refuse("%s with no arguments", x.Name)
	case mixed:
		// The interpreter's combine picks a dynamically-kinded winner; a
		// mixed-kind extremum has no static type.
		refuse("mixed integer/real arguments to %s", x.Name)
	case fold == "" && x.Name != "MOD" && x.Name != "SIGN" && len(args) != 1:
		// evalCall evaluates and discards extra arguments; refusing the
		// degenerate arity keeps emission simple and exact.
		refuse("%s with %d arguments", x.Name, len(args))
	}
	return kind
}

// actualArgs writes a user call, u_NAME(par, args...), following the
// interpreter's binding rules. Functions copy expression actuals in
// (including array elements); subroutines alias array elements and
// view array-element actuals as windows. Bindings whose dynamic kind
// in the interpreter would differ from the static declaration are
// refused.
func (g *goEmitter) actualArgs(c *uctx, name string, args []ir.Expr, isFunc bool) {
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
	g.put("u_", name, "(", c.par)
	for i, a := range args {
		g.put(", ")
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
				g.put(g.array(c, actual.Name).ex)
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
			g.put(e.addr)
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
				g.put("window(", ae.ex, ", ")
				g.ixCall(c, ae.ex, actual.Name, actual.Subs)
				g.put(")")
				continue
			}
			fk := scalarKind(callee, f)
			if isFunc {
				// Copy-in: the cell's initial value keeps the element's
				// kind, so it must match the formal's.
				if elemKind(ae.isInt) != fk {
					refuse("kind mismatch copying element of %s to formal %s of %s", actual.Name, f, name)
				}
				// The element's kind is fk: no conversion.
				g.put(ptrHelper(fk), "(")
				g.x(c, a)
				g.put(")")
				continue
			}
			// Subroutines alias the element: loads and stores go through
			// the array's element kind regardless of the formal's.
			if elemKind(ae.isInt) != fk {
				refuse("kind mismatch aliasing element of %s to formal %s of %s", actual.Name, f, name)
			}
			g.put("&", ae.ex, ".", elemField(ae.isInt), "[")
			g.ixCall(c, ae.ex, actual.Name, actual.Subs)
			g.put("]")
		default:
			if fArr != nil {
				refuse("expression passed to array formal %s of %s", f, name)
			}
			fk := scalarKind(callee, f)
			g.put(ptrHelper(fk), "(")
			if g.x(c, a) != fk {
				// Copy-in cells surface the stored kind on first load.
				refuse("kind mismatch copying actual %d to formal %s of %s", i+1, f, name)
			}
			g.put(")")
		}
	}
	g.put(")")
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
