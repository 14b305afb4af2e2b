// Package ir implements the Polaris internal representation: an abstract
// syntax tree for a Fortran 77 subset together with the high-level,
// consistency-checked operations the Polaris paper describes in Section 2
// (programs, program units, statement lists, expressions, symbols and
// symbol tables, structural equality, and Fortran source printing).
package ir

import (
	"bytes"
	"strconv"
	"strings"
)

// BinOp enumerates binary operators of the Fortran subset.
type BinOp int

// Binary operators. Arithmetic operators come first, then relational,
// then logical, mirroring Fortran precedence classes.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpPow
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

// String returns the Fortran spelling of the operator.
func (op BinOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpPow:
		return "**"
	case OpEq:
		return ".EQ."
	case OpNe:
		return ".NE."
	case OpLt:
		return ".LT."
	case OpLe:
		return ".LE."
	case OpGt:
		return ".GT."
	case OpGe:
		return ".GE."
	case OpAnd:
		return ".AND."
	case OpOr:
		return ".OR."
	}
	return "?"
}

// IsRelational reports whether op compares two arithmetic values.
func (op BinOp) IsRelational() bool { return op >= OpEq && op <= OpGe }

// IsLogical reports whether op combines two logical values.
func (op BinOp) IsLogical() bool { return op == OpAnd || op == OpOr }

// IsArith reports whether op is an arithmetic operator.
func (op BinOp) IsArith() bool { return op <= OpPow }

// UnOp enumerates unary operators.
type UnOp int

// Unary operators.
const (
	OpNeg UnOp = iota // arithmetic negation
	OpNot             // logical .NOT.
)

// Expr is a node in an expression tree. Expression trees are never
// shared between two statements; Clone must be used to duplicate them
// (the IR consistency checker flags aliased structure, as Polaris did).
type Expr interface {
	// String renders the expression as Fortran source.
	String() string
	// Clone returns a deep copy of the expression.
	Clone() Expr
	exprNode()
}

// ConstInt is an integer literal.
type ConstInt struct {
	Val int64
}

// ConstReal is a floating-point literal.
type ConstReal struct {
	Val float64
}

// ConstLogical is a .TRUE./.FALSE. literal.
type ConstLogical struct {
	Val bool
}

// VarRef is a reference to a scalar variable (or to a whole array when
// used as an actual argument).
type VarRef struct {
	Name string
}

// ArrayRef is a subscripted array reference A(s1, ..., sn).
type ArrayRef struct {
	Name string
	Subs []Expr
}

// Binary is a binary operation L op R.
type Binary struct {
	Op   BinOp
	L, R Expr
}

// Unary is a unary operation op X.
type Unary struct {
	Op UnOp
	X  Expr
}

// Call is an intrinsic or user function call in an expression context.
type Call struct {
	Name string
	Args []Expr
}

func (*ConstInt) exprNode()     {}
func (*ConstReal) exprNode()    {}
func (*ConstLogical) exprNode() {}
func (*VarRef) exprNode()       {}
func (*ArrayRef) exprNode()     {}
func (*Binary) exprNode()       {}
func (*Unary) exprNode()        {}
func (*Call) exprNode()         {}

// Clone implementations (deep copies).

// Clone returns a copy of the literal.
func (e *ConstInt) Clone() Expr { c := *e; return &c }

// Clone returns a copy of the literal.
func (e *ConstReal) Clone() Expr { c := *e; return &c }

// Clone returns a copy of the literal.
func (e *ConstLogical) Clone() Expr { c := *e; return &c }

// Clone returns a copy of the reference.
func (e *VarRef) Clone() Expr { c := *e; return &c }

// Clone returns a deep copy of the array reference.
func (e *ArrayRef) Clone() Expr {
	c := &ArrayRef{Name: e.Name, Subs: make([]Expr, len(e.Subs))}
	for i, s := range e.Subs {
		c.Subs[i] = s.Clone()
	}
	return c
}

// Clone returns a deep copy of the operation.
func (e *Binary) Clone() Expr { return &Binary{Op: e.Op, L: e.L.Clone(), R: e.R.Clone()} }

// Clone returns a deep copy of the operation.
func (e *Unary) Clone() Expr { return &Unary{Op: e.Op, X: e.X.Clone()} }

// Clone returns a deep copy of the call.
func (e *Call) Clone() Expr {
	c := &Call{Name: e.Name, Args: make([]Expr, len(e.Args))}
	for i, a := range e.Args {
		c.Args[i] = a.Clone()
	}
	return c
}

// String renderers. Parenthesization is conservative: nested binary
// operands are parenthesized whenever precedence could be ambiguous.
// Every String is appendExpr into one builder, so rendering costs what
// the text is long; concatenating each operand's own string cost the
// square of a sum's length.

func (e *ConstInt) String() string     { return exprString(e) }
func (e *ConstReal) String() string    { return exprString(e) }
func (e *ConstLogical) String() string { return exprString(e) }
func (e *VarRef) String() string       { return e.Name }
func (e *ArrayRef) String() string     { return exprString(e) }
func (e *Binary) String() string       { return exprString(e) }
func (e *Unary) String() string        { return exprString(e) }
func (e *Call) String() string         { return exprString(e) }

// exprString sizes the builder with exprLen before it renders: grown
// from empty, a builder past 256 bytes grows by a quarter at a time and
// allocates about five times the text it ends with.
func exprString(e Expr) string {
	var b strings.Builder
	b.Grow(exprLen(e))
	appendExpr(&b, e)
	return b.String()
}

// appendExpr writes e's Fortran text to b.
func appendExpr(b *strings.Builder, e Expr) {
	var num [32]byte
	switch x := e.(type) {
	case *ConstInt, *ConstReal:
		b.Write(numberText(num[:0], e))
	case *ConstLogical:
		b.WriteString(logicalText(x.Val))
	case *VarRef:
		b.WriteString(x.Name)
	case *ArrayRef:
		appendCall(b, x.Name, x.Subs)
	case *Binary:
		p, pow := precedence(x.Op), x.Op == OpPow
		appendOperand(b, x.L, p, pow)
		b.WriteString(x.Op.String())
		appendOperand(b, x.R, p, !pow)
	case *Unary:
		prefix, prec := unaryForm(x.Op)
		b.WriteString(prefix)
		appendOperand(b, x.X, prec, true)
	case *Call:
		appendCall(b, x.Name, x.Args)
	}
}

// appendCall writes name(a1,...,an), the form of a subscripted array
// reference and of a function call alike.
func appendCall(b *strings.Builder, name string, args []Expr) {
	b.WriteString(name)
	b.WriteByte('(')
	for i, a := range args {
		if i > 0 {
			b.WriteByte(',')
		}
		appendExpr(b, a)
	}
	b.WriteByte(')')
}

// appendOperand writes an operand of an operator of precedence
// parentPrec, parenthesized where operandParens says.
func appendOperand(b *strings.Builder, e Expr, parentPrec int, right bool) {
	paren := operandParens(e, parentPrec, right)
	if paren {
		b.WriteByte('(')
	}
	appendExpr(b, e)
	if paren {
		b.WriteByte(')')
	}
}

// exprLen is the length of the text appendExpr writes for e.
func exprLen(e Expr) int {
	var num [32]byte
	switch x := e.(type) {
	case *ConstInt, *ConstReal:
		return len(numberText(num[:0], e))
	case *ConstLogical:
		return len(logicalText(x.Val))
	case *VarRef:
		return len(x.Name)
	case *ArrayRef:
		return callLen(x.Name, x.Subs)
	case *Binary:
		p, pow := precedence(x.Op), x.Op == OpPow
		return operandLen(x.L, p, pow) + len(x.Op.String()) + operandLen(x.R, p, !pow)
	case *Unary:
		prefix, prec := unaryForm(x.Op)
		return len(prefix) + operandLen(x.X, prec, true)
	case *Call:
		return callLen(x.Name, x.Args)
	}
	return 0
}

func callLen(name string, args []Expr) int {
	n := len(name) + 2 + max(len(args)-1, 0)
	for _, a := range args {
		n += exprLen(a)
	}
	return n
}

func operandLen(e Expr, parentPrec int, right bool) int {
	n := exprLen(e)
	if operandParens(e, parentPrec, right) {
		n += 2
	}
	return n
}

// operandParens reports whether an operand of an operator of precedence
// parentPrec needs parentheses to keep its grouping; right marks the
// side where equal precedence needs them (the right of a left-associative
// operator, the left of **, which associates to the right).
func operandParens(e Expr, parentPrec int, right bool) bool {
	switch x := e.(type) {
	case *Binary:
		p := precedence(x.Op)
		return p < parentPrec || (p == parentPrec && right)
	case *Unary:
		return x.Op == OpNeg && parentPrec >= 4
	}
	return false
}

// unaryForm is a unary operator's spelling and the precedence its
// operand is rendered under. An unknown operator renders as "?" under a
// precedence below every operator's, so its operand is never
// parenthesized.
func unaryForm(op UnOp) (prefix string, prec int) {
	switch op {
	case OpNeg:
		return "-", 5
	case OpNot:
		return ".NOT.", 3
	}
	return "?", -1
}

// numberText appends the text of an integer or real literal to num: a
// real always shows it is one.
func numberText(num []byte, e Expr) []byte {
	switch x := e.(type) {
	case *ConstInt:
		return strconv.AppendInt(num, x.Val, 10)
	case *ConstReal:
		s := strconv.AppendFloat(num, x.Val, 'g', -1, 64)
		if !bytes.ContainsAny(s, ".eE") {
			s = append(s, ".0"...)
		}
		return s
	}
	return num
}

func logicalText(v bool) string {
	if v {
		return ".TRUE."
	}
	return ".FALSE."
}

func precedence(op BinOp) int {
	switch op {
	case OpOr:
		return 1
	case OpAnd:
		return 2
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return 3
	case OpAdd, OpSub:
		return 4
	case OpMul, OpDiv:
		return 5
	case OpPow:
		return 6
	}
	return 0
}

// Convenience constructors, used heavily by transformation passes.

// Int returns an integer literal expression.
func Int(v int64) *ConstInt { return &ConstInt{Val: v} }

// Real returns a real literal expression.
func Real(v float64) *ConstReal { return &ConstReal{Val: v} }

// Logical returns a logical literal expression.
func Logical(v bool) *ConstLogical { return &ConstLogical{Val: v} }

// Var returns a scalar variable reference.
func Var(name string) *VarRef { return &VarRef{Name: name} }

// Index returns an array reference with the given subscripts.
func Index(name string, subs ...Expr) *ArrayRef { return &ArrayRef{Name: name, Subs: subs} }

// Bin returns a binary operation.
func Bin(op BinOp, l, r Expr) *Binary { return &Binary{Op: op, L: l, R: r} }

// Add returns l + r.
func Add(l, r Expr) *Binary { return Bin(OpAdd, l, r) }

// Sub returns l - r.
func Sub(l, r Expr) *Binary { return Bin(OpSub, l, r) }

// Mul returns l * r.
func Mul(l, r Expr) *Binary { return Bin(OpMul, l, r) }

// Div returns l / r.
func Div(l, r Expr) *Binary { return Bin(OpDiv, l, r) }

// Neg returns -x.
func Neg(x Expr) *Unary { return &Unary{Op: OpNeg, X: x} }

// Equal reports deep structural equality of two expressions.
func Equal(a, b Expr) bool {
	switch x := a.(type) {
	case *ConstInt:
		y, ok := b.(*ConstInt)
		return ok && x.Val == y.Val
	case *ConstReal:
		y, ok := b.(*ConstReal)
		return ok && x.Val == y.Val
	case *ConstLogical:
		y, ok := b.(*ConstLogical)
		return ok && x.Val == y.Val
	case *VarRef:
		y, ok := b.(*VarRef)
		return ok && x.Name == y.Name
	case *ArrayRef:
		y, ok := b.(*ArrayRef)
		if !ok || x.Name != y.Name || len(x.Subs) != len(y.Subs) {
			return false
		}
		for i := range x.Subs {
			if !Equal(x.Subs[i], y.Subs[i]) {
				return false
			}
		}
		return true
	case *Binary:
		y, ok := b.(*Binary)
		return ok && x.Op == y.Op && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *Unary:
		y, ok := b.(*Unary)
		return ok && x.Op == y.Op && Equal(x.X, y.X)
	case *Call:
		y, ok := b.(*Call)
		if !ok || x.Name != y.Name || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !Equal(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Children returns the direct subexpressions of e (nil for leaves).
func Children(e Expr) []Expr {
	switch x := e.(type) {
	case *ArrayRef:
		return x.Subs
	case *Binary:
		return []Expr{x.L, x.R}
	case *Unary:
		return []Expr{x.X}
	case *Call:
		return x.Args
	}
	return nil
}

// WalkExpr calls fn for e and every subexpression, pre-order. If fn
// returns false the children of that node are not visited.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	for _, c := range Children(e) {
		WalkExpr(c, fn)
	}
}

// MapExpr rebuilds e bottom-up, replacing every node n with fn(n') where
// n' is n with already-mapped children. fn may return its argument
// unchanged. The input expression is not modified.
func MapExpr(e Expr, fn func(Expr) Expr) Expr {
	switch x := e.(type) {
	case *ArrayRef:
		c := &ArrayRef{Name: x.Name, Subs: make([]Expr, len(x.Subs))}
		for i, s := range x.Subs {
			c.Subs[i] = MapExpr(s, fn)
		}
		return fn(c)
	case *Binary:
		return fn(&Binary{Op: x.Op, L: MapExpr(x.L, fn), R: MapExpr(x.R, fn)})
	case *Unary:
		return fn(&Unary{Op: x.Op, X: MapExpr(x.X, fn)})
	case *Call:
		c := &Call{Name: x.Name, Args: make([]Expr, len(x.Args))}
		for i, a := range x.Args {
			c.Args[i] = MapExpr(a, fn)
		}
		return fn(c)
	default:
		return fn(e.Clone())
	}
}

// SubstVar returns e with every scalar reference to name replaced by a
// clone of repl. The input is not modified.
func SubstVar(e Expr, name string, repl Expr) Expr {
	return MapExpr(e, func(n Expr) Expr {
		if v, ok := n.(*VarRef); ok && v.Name == name {
			return repl.Clone()
		}
		return n
	})
}

// VarsIn returns the set of scalar variable names referenced in e.
// Array names (from ArrayRef and whole-array VarRef actuals) are not
// distinguished here; ArrayRef base names are excluded, subscripts are
// included.
func VarsIn(e Expr) map[string]bool {
	set := map[string]bool{}
	WalkExpr(e, func(n Expr) bool {
		if v, ok := n.(*VarRef); ok {
			set[v.Name] = true
		}
		return true
	})
	return set
}

// ArraysIn returns the set of array names referenced (subscripted) in e.
func ArraysIn(e Expr) map[string]bool {
	set := map[string]bool{}
	WalkExpr(e, func(n Expr) bool {
		if a, ok := n.(*ArrayRef); ok {
			set[a.Name] = true
		}
		return true
	})
	return set
}

// References reports whether e references name as either a scalar
// variable or an array base name.
func References(e Expr, name string) bool {
	found := false
	WalkExpr(e, func(n Expr) bool {
		switch x := n.(type) {
		case *VarRef:
			if x.Name == name {
				found = true
			}
		case *ArrayRef:
			if x.Name == name {
				found = true
			}
		}
		return !found
	})
	return found
}

// CountNodes returns the number of nodes in the expression tree; the
// interpreter's cycle model and test assertions use it.
func CountNodes(e Expr) int {
	n := 0
	WalkExpr(e, func(Expr) bool { n++; return true })
	return n
}
