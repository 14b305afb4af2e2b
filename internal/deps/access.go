// Package deps implements Polaris' data dependence analysis (Section
// 3.3 of the paper): collection of array accesses in loop nests,
// classical linear tests (GCD and Banerjee's inequalities with
// direction vectors — the capability the paper ascribes to existing
// compilers), and the symbolic range test of Blume & Eigenmann with
// loop-order permutation, which handles the nonlinear subscripts that
// induction substitution and linearization introduce.
package deps

import (
	"slices"
	"strings"

	"polaris/internal/gsa"
	"polaris/internal/ir"
	"polaris/internal/rng"
	"polaris/internal/symbolic"
)

// Access is one array reference in a loop body.
type Access struct {
	Array string
	// Subs is nil for a whole array passed to a CALL, which the nest
	// records as one write and one read.
	Subs  []ir.Expr
	Write bool
	// Cond is set when the access is under an IF inside the nest.
	Cond bool
	Stmt ir.Stmt
	// Loops is the chain of DO statements enclosing the access within
	// the analyzed nest (outermost first), excluding loops outside the
	// nest root.
	Loops []*ir.DoStmt
	// conv holds the subscripts as converted for the nest the access was
	// collected in (NewNest), indexed like Subs and filled on first use.
	conv []subConv
}

// subConv is one subscript of one access, converted once per nest: conv
// under the nest's resolver with its analyzable verdict (convSubscript),
// pow without a resolver, so that its IPOW atom keys are spelled as
// addPowerFacts must push them, and lin, conv's affine form over the
// index list linFor (nil until a pair asks).
type subConv struct {
	done, analyzable bool
	conv, pow        symbolic.Conv
	lin              LinearForm
	linOK            bool
	linFor           []string
}

// linear returns ExtractLinear(sc.conv.E, indices). The index list is
// the pair's common nest, so it can differ from the one the stored form
// was extracted for: it is compared, and the form extracted again when
// it does.
func (sc *subConv) linear(indices []string) (LinearForm, bool) {
	if !slices.Equal(sc.linFor, indices) {
		sc.lin, sc.linOK = ExtractLinear(sc.conv.E, indices)
		sc.linFor = indices
	}
	return sc.lin, sc.linOK
}

// Nest is the one walk of a loop body and the one table every question
// about the loop reads: the indices of the loops below the root, the
// scalars the body assigns, the arrays it writes, whether it calls, and
// every access in the nest, grouped by array, with its conversion
// slots. The privatizer (package priv), the verdict, its permuted
// orders, the LRPD retries and the reduction flag removal all read one
// Nest; the reduction mask and the excluded arrays filter the pairs it
// forms, not what it holds. It lives while its caller asks about the
// loop, during which the IR does not change, so nothing in it is ever
// invalidated.
type Nest struct {
	root  *ir.DoStmt
	call  bool // an un-inlined CALL in the body; AnalyzeNest pairs nothing
	inner map[string]bool
	// assigned holds the scalars the body may modify: assignment
	// targets, inner DO indices and names passed to a CALL.
	assigned map[string]bool
	// written holds the arrays the body writes.
	written map[string]bool
	// accesses is sorted by array name, in collection order within an
	// array; groups are its runs of one array.
	accesses []Access
	groups   [][]Access
}

// NewNest builds the nest rooted at loop, a loop of the Tester's unit.
func (t *Tester) NewNest(loop *ir.DoStmt) *Nest {
	n := &Nest{root: loop, inner: map[string]bool{}, assigned: map[string]bool{}, written: map[string]bool{}}
	n.collect(loop.Body, []*ir.DoStmt{loop}, false, t.Unit.Symbols)
	slices.SortStableFunc(n.accesses, func(a, b Access) int { return strings.Compare(a.Array, b.Array) })
	total, start := 0, 0
	for i, a := range n.accesses {
		total += len(a.Subs)
		if i+1 == len(n.accesses) || n.accesses[i+1].Array != a.Array {
			n.groups = append(n.groups, n.accesses[start:i+1])
			start = i + 1
		}
	}
	slab := make([]subConv, total)
	for i := range n.accesses {
		k := len(n.accesses[i].Subs)
		n.accesses[i].conv, slab = slab[:k:k], slab[k:]
	}
	return n
}

// Root returns the loop the nest is rooted at.
func (n *Nest) Root() *ir.DoStmt { return n.root }

// Groups returns the accesses grouped by array: arrays in name order,
// each array's accesses in the order the walk met them.
func (n *Nest) Groups() [][]Access { return n.groups }

// Assigned reports whether the body may modify the scalar name.
func (n *Nest) Assigned(name string) bool { return n.assigned[name] }

func (n *Nest) isIndex(name string) bool { return name == n.root.Index || n.inner[name] }

// collect walks block b of the nest, under the loops (root first) and,
// when cond, under an IF: it records every array access and what the
// body assigns, writes and calls.
func (n *Nest) collect(b *ir.Block, loops []*ir.DoStmt, cond bool, syms *ir.SymbolTable) {
	for _, s := range b.Stmts {
		switch x := s.(type) {
		case *ir.AssignStmt:
			switch lhs := x.LHS.(type) {
			case *ir.ArrayRef:
				n.add(Access{Array: lhs.Name, Subs: lhs.Subs, Write: true, Cond: cond, Stmt: s, Loops: loops})
				for _, sub := range lhs.Subs {
					n.reads(sub, s, loops, cond)
				}
			case *ir.VarRef:
				n.assigned[lhs.Name] = true
			}
			n.reads(x.RHS, s, loops, cond)
		case *ir.IfStmt:
			n.reads(x.Cond, s, loops, cond)
			n.collect(x.Then, loops, true, syms)
			if x.Else != nil {
				n.collect(x.Else, loops, true, syms)
			}
		case *ir.DoStmt:
			n.inner[x.Index] = true
			n.assigned[x.Index] = true
			n.reads(x.Init, s, loops, cond)
			n.reads(x.Limit, s, loops, cond)
			if x.Step != nil {
				n.reads(x.Step, s, loops, cond)
			}
			n.collect(x.Body, append(append([]*ir.DoStmt{}, loops...), x), cond, syms)
		case *ir.CallStmt:
			n.call = true
			for _, arg := range x.Args {
				if v, ok := arg.(*ir.VarRef); ok {
					n.assigned[v.Name] = true
					if sym := syms.Lookup(v.Name); sym != nil && sym.IsArray() {
						// Passed by reference: the call may read and
						// write every element.
						n.add(Access{Array: v.Name, Write: true, Cond: cond, Stmt: s, Loops: loops})
						n.add(Access{Array: v.Name, Cond: cond, Stmt: s, Loops: loops})
						continue
					}
				}
				n.reads(arg, s, loops, cond)
			}
		}
	}
}

func (n *Nest) add(a Access) {
	if a.Write {
		n.written[a.Array] = true
	}
	n.accesses = append(n.accesses, a)
}

// reads records the array reads in e.
func (n *Nest) reads(e ir.Expr, s ir.Stmt, loops []*ir.DoStmt, cond bool) {
	ir.WalkExpr(e, func(x ir.Expr) bool {
		if a, ok := x.(*ir.ArrayRef); ok {
			n.add(Access{Array: a.Name, Subs: a.Subs, Cond: cond, Stmt: s, Loops: loops})
		}
		return true
	})
}

// Tester holds per-unit analysis context shared across queries.
type Tester struct {
	Unit   *ir.ProgramUnit
	Ranges *rng.Analyzer
	GSA    *gsa.Analyzer
}

// NewTester builds analysis context for a unit.
func NewTester(u *ir.ProgramUnit, ra *rng.Analyzer) *Tester {
	return &Tester{Unit: u, Ranges: ra, GSA: gsa.New(u, ra.Leaves())}
}

// sub returns acc's d-th subscript converted for the nest, converting
// it the first time any pair asks.
func (t *Tester) sub(n *Nest, acc Access, d int) *subConv {
	sc := &acc.conv[d]
	if !sc.done {
		*sc = t.convSubscript(n, acc, acc.Subs[d])
	}
	return sc
}

// convSubscript converts a subscript expression at a statement into
// symbolic form usable for dependence testing. The result is
// analyzable only when every symbol is a nest loop index, a scalar
// invariant in the nest, or an opaque array/pure-function atom over
// such values whose base array is not written in the nest; everything
// else (loop-variant scalars resolving to gated values, subscripted
// subscripts into arrays written in the nest) is unanalyzable and the
// caller must assume a dependence (the LRPD candidate path).
func (t *Tester) convSubscript(n *Nest, acc Access, e ir.Expr) subConv {
	resolved := false
	lv := t.Ranges.Leaves()
	sc := subConv{done: true, conv: symbolic.FromIR(e, lv, func(name string) *symbolic.Expr {
		v := t.resolve(n, acc.Stmt, name)
		resolved = resolved || v != nil
		return v
	})}
	// Where the resolver substituted nothing, the resolver-free
	// conversion is the same walk with the same result.
	sc.pow = sc.conv
	if resolved {
		sc.pow = symbolic.FromIR(e, lv, nil)
	}
	sc.analyzable = sc.conv.OK && t.exprAnalyzable(n, sc.conv.E)
	return sc
}

// resolve is convSubscript's resolver: the value to substitute for a
// scalar read at stmt, nil to leave it a free variable.
func (t *Tester) resolve(n *Nest, stmt ir.Stmt, name string) *symbolic.Expr {
	if n.isIndex(name) {
		return nil
	}
	if !n.assigned[name] {
		return t.Ranges.Consts()[name]
	}
	// Loop-variant scalar: resolve through GSA (catches simple
	// chains like M = IND(L)).
	v := t.GSA.ValueBefore(stmt, name, 4)
	if symbolic.Equal(v, t.Ranges.Leaves().Var(name)) {
		return nil
	}
	return v
}

func (t *Tester) exprAnalyzable(n *Nest, e *symbolic.Expr) bool {
	for v := range e.Vars() {
		if n.isIndex(v) {
			continue
		}
		if n.assigned[v] {
			return false
		}
	}
	ok := true
	e.EachOpaqueAtom(func(_ string, atom symbolic.Atom) bool {
		ok = t.atomAnalyzable(n, atom)
		return ok
	})
	return ok
}

func (t *Tester) atomAnalyzable(n *Nest, atom symbolic.Atom) bool {
	if atom.Call {
		if atom.Name != "IDIV" && atom.Name != "IPOW" {
			return false // unknown function: not provably pure
		}
	} else if n.written[atom.Name] {
		return false // subscript array modified in the nest
	}
	// Gate atoms have no args slice entries but Args != nil with
	// len 0; they carry loop-variant values.
	if len(atom.Args) == 0 && !atom.Call {
		return false
	}
	for _, arg := range atom.Args {
		if !t.exprAnalyzable(n, arg) {
			return false
		}
	}
	return true
}
