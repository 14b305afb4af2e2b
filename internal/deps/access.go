// Package deps implements Polaris' data dependence analysis (Section
// 3.3 of the paper): collection of array accesses in loop nests,
// classical linear tests (GCD and Banerjee's inequalities with
// direction vectors — the capability the paper ascribes to existing
// compilers), and the symbolic range test of Blume & Eigenmann with
// loop-order permutation, which handles the nonlinear subscripts that
// induction substitution and linearization introduce.
package deps

import (
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
}

// CollectAccesses gathers every array access in the body of root
// (including nested loops), tagging each with its enclosing loops
// within the nest. Statements in skip are ignored entirely (used to
// mask recognized reduction statements).
func CollectAccesses(root *ir.DoStmt, skip map[ir.Stmt]bool) []Access {
	var out []Access
	var walk func(b *ir.Block, loops []*ir.DoStmt)
	walk = func(b *ir.Block, loops []*ir.DoStmt) {
		for _, s := range b.Stmts {
			if skip[s] {
				continue
			}
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
	ir.WalkStmts(root.Body, func(s ir.Stmt) bool {
		if a, ok := s.(*ir.AssignStmt); ok {
			if ref, ok := a.LHS.(*ir.ArrayRef); ok {
				w[ref.Name] = true
			}
		}
		if c, ok := s.(*ir.CallStmt); ok {
			// A whole array passed to a call may be written.
			for _, arg := range c.Args {
				if v, ok := arg.(*ir.VarRef); ok {
					if sym := t.Unit.Symbols.Lookup(v.Name); sym != nil && sym.IsArray() {
						w[v.Name] = true
					}
				}
			}
		}
		return true
	})
	t.writtenArrays[root] = w
	return w
}

// convSubscript converts a subscript expression at a statement into
// symbolic form usable for dependence testing. The result is
// analyzable only when every symbol is a nest loop index, a scalar
// invariant in the nest, or an opaque array/pure-function atom over
// such values whose base array is not written in the nest; everything
// else (loop-variant scalars resolving to gated values, subscripted
// subscripts into arrays written in the nest) is unanalyzable and the
// caller must assume a dependence (the LRPD candidate path).
func (t *Tester) convSubscript(root *ir.DoStmt, acc Access, e ir.Expr) (conv symbolic.Conv, analyzable bool) {
	indices := map[string]bool{}
	for _, d := range ir.Loops(root.Body) {
		indices[d.Index] = true
	}
	indices[root.Index] = true
	for _, d := range acc.Loops {
		indices[d.Index] = true
	}
	resolver := func(name string) *symbolic.Expr {
		if indices[name] {
			return nil
		}
		if !t.assignedInNest(root, name) {
			if c := t.Ranges.Consts()[name]; c != nil {
				return c
			}
			return nil
		}
		// Loop-variant scalar: resolve through GSA (catches simple
		// chains like M = IND(L)).
		v := t.GSA.ValueBefore(acc.Stmt, name, 4)
		if symbolic.Equal(v, symbolic.Var(name)) {
			return nil
		}
		return v
	}
	conv = symbolic.FromIR(e, resolver)
	if !conv.OK {
		return conv, false
	}
	return conv, t.exprAnalyzable(root, conv.E, indices)
}

func (t *Tester) exprAnalyzable(root *ir.DoStmt, e *symbolic.Expr, indices map[string]bool) bool {
	for v := range e.Vars() {
		if indices[v] {
			continue
		}
		if t.assignedInNest(root, v) {
			return false
		}
	}
	written := t.writtenIn(root)
	ok := true
	e.EachOpaqueAtom(func(_ string, atom symbolic.Atom) bool {
		ok = t.atomAnalyzable(root, atom, written, indices)
		return ok
	})
	return ok
}

func (t *Tester) atomAnalyzable(root *ir.DoStmt, atom symbolic.Atom, written, indices map[string]bool) bool {
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
		if !t.exprAnalyzable(root, arg, indices) {
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
