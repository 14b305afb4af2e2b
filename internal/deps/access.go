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

// Access is one subscripted array reference in a loop body.
type Access struct {
	Array string
	Subs  []ir.Expr
	Write bool
	Stmt  ir.Stmt
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

// Nest is the one table every dependence question about a loop reads:
// the indices of the loops below the root and every access in the nest,
// grouped by array, with its conversion slots. The verdict, its permuted
// orders, the LRPD retries and the reduction flag removal all read one
// Nest; the reduction mask and the excluded arrays filter the pairs it
// forms, not what it holds. It lives while its caller asks about the
// loop, during which the IR does not change, so nothing in it is ever
// invalidated.
type Nest struct {
	root  *ir.DoStmt
	call  bool // an un-inlined CALL in the body; nothing is collected
	inner map[string]bool
	// accesses is sorted by array name, in collection order within an
	// array; groups are its runs of one array.
	accesses []Access
	groups   [][]Access
}

// NewNest builds the nest rooted at loop, a loop of the Tester's unit.
func (t *Tester) NewNest(loop *ir.DoStmt) *Nest {
	n := &Nest{root: loop, call: hasCall(loop), inner: map[string]bool{}}
	if n.call {
		return n
	}
	for _, d := range ir.Loops(loop.Body) {
		n.inner[d.Index] = true
	}
	n.accesses = collectAccesses(loop)
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

func (n *Nest) isIndex(name string) bool { return name == n.root.Index || n.inner[name] }

// collectAccesses gathers every array access in the body of root
// (including nested loops), tagging each with its enclosing loops
// within the nest.
func collectAccesses(root *ir.DoStmt) []Access {
	var out []Access
	var walk func(b *ir.Block, loops []*ir.DoStmt)
	walk = func(b *ir.Block, loops []*ir.DoStmt) {
		for _, s := range b.Stmts {
			switch x := s.(type) {
			case *ir.AssignStmt:
				if a, ok := x.LHS.(*ir.ArrayRef); ok {
					out = append(out, Access{Array: a.Name, Subs: a.Subs, Write: true, Stmt: s, Loops: loops})
					for _, sub := range a.Subs {
						collectReads(sub, s, loops, &out)
					}
				}
				collectReads(x.RHS, s, loops, &out)
			case *ir.IfStmt:
				collectReads(x.Cond, s, loops, &out)
				walk(x.Then, loops)
				if x.Else != nil {
					walk(x.Else, loops)
				}
			case *ir.DoStmt:
				collectReads(x.Init, s, loops, &out)
				collectReads(x.Limit, s, loops, &out)
				if x.Step != nil {
					collectReads(x.Step, s, loops, &out)
				}
				walk(x.Body, append(append([]*ir.DoStmt{}, loops...), x))
			case *ir.CallStmt:
				// Whole arrays passed to calls are handled by the
				// driver (calls inside candidate loops block
				// parallelization unless inlined); subscripted
				// arguments are reads.
				for _, arg := range x.Args {
					collectReads(arg, s, loops, &out)
				}
			}
		}
	}
	walk(root.Body, []*ir.DoStmt{root})
	return out
}

func collectReads(e ir.Expr, s ir.Stmt, loops []*ir.DoStmt, out *[]Access) {
	ir.WalkExpr(e, func(n ir.Expr) bool {
		if a, ok := n.(*ir.ArrayRef); ok {
			*out = append(*out, Access{Array: a.Name, Subs: a.Subs, Write: false, Stmt: s, Loops: loops})
		}
		return true
	})
}

// Tester holds per-unit analysis context shared across queries.
type Tester struct {
	Unit   *ir.ProgramUnit
	Ranges *rng.Analyzer
	GSA    *gsa.Analyzer
	// writtenArrays caches, per nest root, the arrays written in it.
	writtenArrays map[*ir.DoStmt]map[string]bool
}

// NewTester builds analysis context for a unit.
func NewTester(u *ir.ProgramUnit, ra *rng.Analyzer) *Tester {
	return &Tester{Unit: u, Ranges: ra, GSA: gsa.New(u), writtenArrays: map[*ir.DoStmt]map[string]bool{}}
}

// writtenIn returns the set of arrays written anywhere in the nest.
func (t *Tester) writtenIn(root *ir.DoStmt) map[string]bool {
	if w, ok := t.writtenArrays[root]; ok {
		return w
	}
	w := map[string]bool{}
	ir.EachArrayWritten(root.Body, t.Unit.Symbols, func(name string) { w[name] = true })
	t.writtenArrays[root] = w
	return w
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
	sc := subConv{done: true, conv: symbolic.FromIR(e, func(name string) *symbolic.Expr {
		v := t.resolve(n, acc.Stmt, name)
		resolved = resolved || v != nil
		return v
	})}
	// Where the resolver substituted nothing, the resolver-free
	// conversion is the same walk with the same result.
	sc.pow = sc.conv
	if resolved {
		sc.pow = symbolic.FromIR(e, nil)
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
	if !t.assignedInNest(n.root, name) {
		return t.Ranges.Consts()[name]
	}
	// Loop-variant scalar: resolve through GSA (catches simple
	// chains like M = IND(L)).
	v := t.GSA.ValueBefore(stmt, name, 4)
	if symbolic.Equal(v, symbolic.Var(name)) {
		return nil
	}
	return v
}

func (t *Tester) exprAnalyzable(n *Nest, e *symbolic.Expr) bool {
	for v := range e.Vars() {
		if n.isIndex(v) {
			continue
		}
		if t.assignedInNest(n.root, v) {
			return false
		}
	}
	written := t.writtenIn(n.root)
	ok := true
	e.EachOpaqueAtom(func(_ string, atom symbolic.Atom) bool {
		ok = t.atomAnalyzable(n, atom, written)
		return ok
	})
	return ok
}

func (t *Tester) atomAnalyzable(n *Nest, atom symbolic.Atom, written map[string]bool) bool {
	if atom.Call {
		if atom.Name != "IDIV" && atom.Name != "IPOW" {
			return false // unknown function: not provably pure
		}
	} else if written[atom.Name] {
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

// assignedInNest reports whether the scalar name may be modified inside
// the nest (assigned, a DO index, or passed to a call).
func (t *Tester) assignedInNest(root *ir.DoStmt, name string) bool {
	found := false
	check := func(s ir.Stmt) bool {
		switch x := s.(type) {
		case *ir.AssignStmt:
			if v, ok := x.LHS.(*ir.VarRef); ok && v.Name == name {
				found = true
			}
		case *ir.DoStmt:
			if x.Index == name {
				found = true
			}
		case *ir.CallStmt:
			for _, a := range x.Args {
				if v, ok := a.(*ir.VarRef); ok && v.Name == name {
					found = true
				}
			}
		}
		return !found
	}
	check(ir.Stmt(root))
	ir.WalkStmts(root.Body, check)
	return found
}
