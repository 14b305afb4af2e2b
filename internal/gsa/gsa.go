// Package gsa implements the Gated-SSA-based, demand-driven symbolic
// analysis of Tu & Padua that Polaris uses for array privatization
// (Section 3.4 of the paper): the value of a scalar at a program point
// is resolved by backward substitution through assignments, with gating
// functions at control-flow joins (gamma) and loop headers (mu)
// represented as opaque terms when the incoming values differ.
//
// The analysis is demand-driven and sparse: nothing is computed until a
// query asks for the value of one variable at one point, and only the
// def-use chains feeding that value are visited.
package gsa

import (
	"fmt"

	"polaris/internal/ir"
	"polaris/internal/symbolic"
)

// DefaultDepth bounds backward substitution chains.
const DefaultDepth = 8

// Analyzer answers value queries for one program unit.
type Analyzer struct {
	unit *ir.ProgramUnit
	// lv is the compile's leaf table: conversions and free variables
	// come from it.
	lv *symbolic.Leaves
	// gateID allocates stable identities for gamma/mu gates so equal
	// queries produce equal opaque atoms (letting them cancel in
	// comparisons).
	gateIDs map[string]int
	nextID  int
}

// New returns an analyzer for the unit, converting with the leaf table
// of the compile the unit belongs to.
func New(u *ir.ProgramUnit, lv *symbolic.Leaves) *Analyzer {
	return &Analyzer{unit: u, lv: lv, gateIDs: map[string]int{}}
}

// ValueBefore returns the symbolic value of the scalar name immediately
// before target executes, following use-def chains backward up to depth
// substitutions. Unresolvable values come back as opaque gate atoms, so
// the result is always usable in comparisons (equal gates cancel).
func (g *Analyzer) ValueBefore(target ir.Stmt, name string, depth int) *symbolic.Expr {
	// The index of an enclosing loop is the loop's symbolic index.
	for _, d := range ir.EnclosingLoops(g.unit.Body, target) {
		if d.Index == name {
			return g.lv.Var(name)
		}
	}
	return g.valueBefore(g.unit.Body, target, name, depth)
}

// valueBefore resolves name immediately before target, where target is
// somewhere inside block b (possibly nested). It returns nil if target
// is not in b.
func (g *Analyzer) valueBefore(b *ir.Block, target ir.Stmt, name string, depth int) *symbolic.Expr {
	idx := -1
	for i, s := range b.Stmts {
		if s == target {
			idx = i
			break
		}
		var inner *ir.Block
		switch x := s.(type) {
		case *ir.DoStmt:
			inner = x.Body
		case *ir.IfStmt:
			if v := g.valueBefore(x.Then, target, name, depth); v != nil {
				return v
			}
			if x.Else != nil {
				inner = x.Else
			}
		}
		if inner != nil {
			if v := g.valueBefore(inner, target, name, depth); v != nil {
				// target found inside s: the value at target is the
				// value computed within, already resolved.
				return v
			}
		}
	}
	if idx == -1 {
		return nil
	}
	return g.valueAtEnd(b, idx, target, name, depth)
}

// valueAtEnd resolves name after the first upTo statements of b,
// walking backward. container is the statement whose block b is, used
// to continue outward (nil for the unit body). target anchors the
// original query for gate identity.
func (g *Analyzer) valueAtEnd(b *ir.Block, upTo int, target ir.Stmt, name string, depth int) *symbolic.Expr {
	for i := upTo - 1; i >= 0; i-- {
		s := b.Stmts[i]
		switch x := s.(type) {
		case *ir.AssignStmt:
			if v, ok := x.LHS.(*ir.VarRef); ok && v.Name == name {
				if depth <= 0 {
					return g.gate("DEPTH", s, name)
				}
				return g.resolveRHS(x, x.RHS, depth-1)
			}
		case *ir.CallStmt:
			for _, arg := range x.Args {
				if v, ok := arg.(*ir.VarRef); ok && v.Name == name {
					// Passed by reference: the call may redefine it.
					return g.gate("CALL", s, name)
				}
			}
		case *ir.DoStmt:
			if x.Index == name {
				// After the loop the index holds its exit value:
				// representable when the step is 1 as limit+1, but kept
				// opaque for robustness.
				return g.gate("MU", s, name)
			}
			if assignsName(x.Body, name) {
				// A loop that assigns name: mu gate (value depends on
				// the trip count).
				return g.gate("MU", s, name)
			}
		case *ir.IfStmt:
			thenAssigns := assignsName(x.Then, name)
			elseAssigns := x.Else != nil && assignsName(x.Else, name)
			if !thenAssigns && !elseAssigns {
				continue
			}
			// gamma gate: value from the THEN arm, the ELSE arm (or
			// fall-through), merged if equal.
			var vThen, vElse *symbolic.Expr
			if thenAssigns {
				vThen = g.valueAtEnd(x.Then, len(x.Then.Stmts), target, name, depth)
			} else {
				vThen = g.valueAtEnd(b, i, target, name, depth)
			}
			if elseAssigns {
				vElse = g.valueAtEnd(x.Else, len(x.Else.Stmts), target, name, depth)
			} else {
				vElse = g.valueAtEnd(b, i, target, name, depth)
			}
			if vThen != nil && vElse != nil && symbolic.Equal(vThen, vElse) {
				return vThen
			}
			return g.gate("GAMMA", s, name)
		}
	}
	// Start of block: continue outward from the containing statement.
	return g.valueOutward(b, target, name, depth)
}

// valueOutward finds the statement containing block b and continues the
// backward walk before it.
func (g *Analyzer) valueOutward(b *ir.Block, target ir.Stmt, name string, depth int) *symbolic.Expr {
	parentBlock, container := g.findContainer(g.unit.Body, b)
	if container == nil {
		// Unit entry: formals and COMMON variables are free symbols;
		// anything else is formally undefined, also left free.
		return g.lv.Var(name)
	}
	if d, ok := container.(*ir.DoStmt); ok {
		if d.Index == name {
			return g.lv.Var(name)
		}
		if assignsName(d.Body, name) {
			// Reaching the top of a loop iteration: the value may come
			// from a previous iteration (mu gate).
			return g.gate("MU", container, name)
		}
	}
	idx := parentBlock.IndexOf(container)
	ir.Assert(idx >= 0, "gsa: container not in its parent block")
	return g.valueAtEnd(parentBlock, idx, target, name, depth)
}

// findContainer locates the block directly containing b and the
// statement owning b. Returns (nil, nil) when b is the unit body.
func (g *Analyzer) findContainer(root *ir.Block, b *ir.Block) (*ir.Block, ir.Stmt) {
	if root == b {
		return nil, nil
	}
	var foundBlock *ir.Block
	var foundStmt ir.Stmt
	var walk func(blk *ir.Block) bool
	walk = func(blk *ir.Block) bool {
		for _, s := range blk.Stmts {
			var children []*ir.Block
			switch x := s.(type) {
			case *ir.DoStmt:
				children = []*ir.Block{x.Body}
			case *ir.IfStmt:
				children = []*ir.Block{x.Then}
				if x.Else != nil {
					children = append(children, x.Else)
				}
			}
			for _, c := range children {
				if c == b {
					foundBlock, foundStmt = blk, s
					return true
				}
				if walk(c) {
					return true
				}
			}
		}
		return false
	}
	walk(root)
	return foundBlock, foundStmt
}

// resolveRHS converts an assignment RHS to symbolic form, recursively
// resolving the scalars it references to their values before the
// assignment.
func (g *Analyzer) resolveRHS(at ir.Stmt, rhs ir.Expr, depth int) *symbolic.Expr {
	conv := symbolic.FromIR(rhs, g.lv, func(n string) *symbolic.Expr {
		v := g.ValueBefore(at, n, depth)
		if symbolic.Equal(v, g.lv.Var(n)) {
			return nil
		}
		return v
	})
	if !conv.OK {
		return g.gate("NONARITH", at, "")
	}
	return conv.E
}

// gate returns a stable opaque atom identifying a gating function at a
// statement for a variable. Two queries reaching the same gate get the
// same atom, so gated values cancel in comparisons.
func (g *Analyzer) gate(kind string, at ir.Stmt, name string) *symbolic.Expr {
	key := fmt.Sprintf("%s:%p:%s", kind, at, name)
	id, ok := g.gateIDs[key]
	if !ok {
		id = g.nextID
		g.nextID++
		g.gateIDs[key] = id
	}
	return symbolic.Opaque(fmt.Sprintf("%s%d", kind, id))
}

func assignsName(b *ir.Block, name string) bool {
	found := false
	ir.WalkStmts(b, func(s ir.Stmt) bool {
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
			for _, arg := range x.Args {
				if v, ok := arg.(*ir.VarRef); ok && v.Name == name {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
