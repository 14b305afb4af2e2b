package ir

import (
	"fmt"
	"reflect"
	"slices"
)

// Check verifies the internal consistency invariants the Polaris IR
// enforces (Section 2 of the paper):
//
//   - no structure sharing: an expression or statement node must not be
//     reachable from two places (aliased structures are an error). The
//     one exception is a symbol: a parsed table points at the previous
//     table's symbols that equal its own (SymbolBuilder.Table), never at
//     a formal, and nothing writes a symbol after the parse but
//     SymbolTable.BindFormal, which writes formals alone;
//   - every referenced variable or array resolves in the unit's symbol
//     table (after implicit declaration) with the right rank;
//   - DO indices are integer scalars; loop bodies are well-formed;
//   - assignment targets are scalar or array references.
//
// Check returns the first violation found, or nil. Each invariant is
// proved once: the parser runs CheckRules as each unit ends (its tests
// hold that it never aliases a node), and verify-ir runs Check on every
// unit the pipeline ran. A compile does not re-check its input.
func (p *Program) Check() error {
	seen := findAliased(p.Units)
	for _, u := range p.Units {
		if err := u.check(seen); err != nil {
			return err
		}
	}
	return nil
}

// Check verifies the unit in isolation.
func (u *ProgramUnit) Check() error {
	return u.check(findAliased([]*ProgramUnit{u}))
}

// CheckRules is Check without the aliasing sweep, for a unit whose
// nodes are all fresh allocations, as a just-parsed unit's are.
func (u *ProgramUnit) CheckRules() error {
	return u.check(nil)
}

// aliased holds the nodes reachable from two places, keyed by address.
// The value is the unit the checking walk first reached the node from,
// which an aliasing error has to name, and is nil until it has. A
// consistent program has none, and its map is nil.
type aliased map[uintptr]*ProgramUnit

// findAliased sorts the address of every node of the units: 8 bytes a
// node, where remembering every node in a map cost five times that.
func findAliased(units []*ProgramUnit) aliased {
	n := 0
	eachNode(units, func(any) { n++ })
	addrs := make([]uintptr, 0, n)
	eachNode(units, func(node any) { addrs = append(addrs, addrOf(node)) })
	slices.Sort(addrs)
	var dups aliased
	for i := 1; i < len(addrs); i++ {
		if addrs[i] == addrs[i-1] {
			if dups == nil {
				dups = aliased{}
			}
			dups[addrs[i]] = nil
		}
	}
	return dups
}

// eachNode visits every statement and expression node of the units.
// Stateless statements (RETURN/STOP/CONTINUE) are zero-sized: Go may
// give distinct allocations the same address, and sharing them is
// harmless anyway, so they are exempt from the aliasing check.
func eachNode(units []*ProgramUnit, visit func(node any)) {
	visitExpr := func(e Expr) bool { visit(e); return true }
	for _, u := range units {
		// Not WalkStmtExprs: there StmtExprs' slices escape to the heap,
		// one per statement; here they stay on the stack.
		WalkStmts(u.Body, func(s Stmt) bool {
			if !stateless(s) {
				visit(s)
			}
			for _, e := range StmtExprs(s) {
				WalkExpr(e, visitExpr)
			}
			return true
		})
	}
}

func stateless(s Stmt) bool {
	switch s.(type) {
	case *ReturnStmt, *StopStmt, *ContinueStmt:
		return true
	}
	return false
}

// addrOf returns the address of a node; every node type is a pointer.
func addrOf(node any) uintptr { return reflect.ValueOf(node).Pointer() }

// again reports whether the walk has reached node before, returning
// the unit it was first reached from.
func (seen aliased) again(node any, u *ProgramUnit) (first *ProgramUnit, dup bool) {
	if seen == nil {
		return nil, false
	}
	addr := addrOf(node)
	first, dup = seen[addr]
	if dup && first == nil {
		seen[addr] = u
		return nil, false
	}
	return first, dup
}

func (u *ProgramUnit) check(seen aliased) error {
	if u.Symbols == nil || u.Body == nil {
		return &ConsistencyError{Msg: fmt.Sprintf("unit %s: nil symbol table or body", u.Name)}
	}
	for _, f := range u.Formals {
		if u.Symbols.Lookup(f) == nil {
			return &ConsistencyError{Msg: fmt.Sprintf("unit %s: formal %s undeclared", u.Name, f)}
		}
	}
	var err error
	// One closure per unit, not per expression tree: it is called for
	// every node of the program.
	visitExpr := func(n Expr) bool {
		if err != nil {
			return false
		}
		err = u.checkExprNode(n, seen)
		return err == nil
	}
	WalkStmts(u.Body, func(s Stmt) bool {
		if err != nil {
			return false
		}
		if !stateless(s) {
			if prev, dup := seen.again(s, u); dup {
				err = &ConsistencyError{Msg: fmt.Sprintf("statement aliased between unit %s and unit %s", prev.Name, u.Name)}
				return false
			}
		}
		if err = u.checkStmt(s); err != nil {
			return false
		}
		for _, e := range StmtExprs(s) {
			WalkExpr(e, visitExpr)
		}
		return err == nil
	})
	return err
}

// checkStmt verifies the statement's own invariants; its expressions
// are the caller's to walk.
func (u *ProgramUnit) checkStmt(s Stmt) error {
	switch x := s.(type) {
	case *AssignStmt:
		switch lhs := x.LHS.(type) {
		case *VarRef:
			sym := u.Symbols.Lookup(lhs.Name)
			if sym != nil && sym.IsArray() {
				return &ConsistencyError{Msg: fmt.Sprintf("unit %s: assignment to whole array %s", u.Name, lhs.Name)}
			}
		case *ArrayRef:
			// checked below with the expression walk
		default:
			return &ConsistencyError{Msg: fmt.Sprintf("unit %s: invalid assignment target %s", u.Name, x.LHS)}
		}
	case *DoStmt:
		sym := u.Symbols.Lookup(x.Index)
		if sym == nil {
			sym = u.Symbols.Declare(x.Index)
		}
		if sym.Type != TypeInteger {
			return &ConsistencyError{Msg: fmt.Sprintf("unit %s: DO index %s is not INTEGER", u.Name, x.Index)}
		}
		if sym.IsArray() {
			return &ConsistencyError{Msg: fmt.Sprintf("unit %s: DO index %s is an array", u.Name, x.Index)}
		}
		if x.Body == nil {
			return &ConsistencyError{Msg: fmt.Sprintf("unit %s: DO %s has nil body", u.Name, x.Index)}
		}
	case *IfStmt:
		if x.Then == nil {
			return &ConsistencyError{Msg: fmt.Sprintf("unit %s: IF has nil THEN block", u.Name)}
		}
	}
	return nil
}

// checkExprNode verifies one expression node: not reachable from two
// places, and consistent with the unit's symbol table.
func (u *ProgramUnit) checkExprNode(n Expr, seen aliased) error {
	if prev, dup := seen.again(n, u); dup {
		return &ConsistencyError{Msg: fmt.Sprintf("expression %s aliased (first seen in unit %s, again in unit %s)", n, prev.Name, u.Name)}
	}
	switch x := n.(type) {
	case *ArrayRef:
		sym := u.Symbols.Lookup(x.Name)
		if sym == nil {
			// A subscripted reference to an undeclared name is a
			// function call in Fortran; the parser resolves this,
			// so by IR-check time it must be declared.
			return &ConsistencyError{Msg: fmt.Sprintf("unit %s: array %s undeclared", u.Name, x.Name)}
		}
		if sym.IsArray() && len(x.Subs) != len(sym.Dims) {
			return &ConsistencyError{Msg: fmt.Sprintf("unit %s: %s has rank %d, referenced with %d subscripts", u.Name, x.Name, len(sym.Dims), len(x.Subs))}
		}
		if !sym.IsArray() {
			return &ConsistencyError{Msg: fmt.Sprintf("unit %s: %s subscripted but declared scalar", u.Name, x.Name)}
		}
	case *VarRef:
		u.Symbols.Declare(x.Name)
	}
	return nil
}
