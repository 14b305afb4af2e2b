package ir

import "fmt"

// Check verifies the internal consistency invariants the Polaris IR
// enforces (Section 2 of the paper):
//
//   - no structure sharing: an expression or statement node must not be
//     reachable from two places (aliased structures are an error);
//   - every referenced variable or array resolves in the unit's symbol
//     table (after implicit declaration) with the right rank;
//   - DO indices are integer scalars; loop bodies are well-formed;
//   - assignment targets are scalar or array references.
//
// Check returns the first violation found, or nil.
func (p *Program) Check() error {
	seen := newSeenNodes(p.Units)
	for _, u := range p.Units {
		if err := u.check(seen); err != nil {
			return err
		}
	}
	return nil
}

// Check verifies the unit in isolation.
func (u *ProgramUnit) Check() error {
	return u.check(newSeenNodes([]*ProgramUnit{u}))
}

// seenNodes records, for every node met so far, the unit it was first
// reached from, which is what an aliasing error has to name.
type seenNodes struct {
	exprs map[Expr]*ProgramUnit
	stmts map[Stmt]*ProgramUnit
}

// newSeenNodes sizes both maps for the units about to be checked, so
// filling them never rehashes.
func newSeenNodes(units []*ProgramUnit) *seenNodes {
	var stmts, exprs int
	countExpr := func(Expr) bool { exprs++; return true }
	for _, u := range units {
		// Not WalkStmtExprs: there StmtExprs' slices escape to the heap,
		// one per statement; here they stay on the stack.
		WalkStmts(u.Body, func(s Stmt) bool {
			stmts++
			for _, e := range StmtExprs(s) {
				WalkExpr(e, countExpr)
			}
			return true
		})
	}
	return &seenNodes{
		exprs: make(map[Expr]*ProgramUnit, exprs),
		stmts: make(map[Stmt]*ProgramUnit, stmts),
	}
}

func (u *ProgramUnit) check(seen *seenNodes) error {
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
		// Stateless statements (RETURN/STOP/CONTINUE) are zero-sized:
		// Go may give distinct allocations the same address, and
		// sharing them is harmless anyway — exempt them from the
		// aliasing check.
		switch s.(type) {
		case *ReturnStmt, *StopStmt, *ContinueStmt:
		default:
			if prev, dup := seen.stmts[s]; dup {
				err = &ConsistencyError{Msg: fmt.Sprintf("statement aliased between unit %s and unit %s", prev.Name, u.Name)}
				return false
			}
			seen.stmts[s] = u
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
func (u *ProgramUnit) checkExprNode(n Expr, seen *seenNodes) error {
	if prev, dup := seen.exprs[n]; dup {
		return &ConsistencyError{Msg: fmt.Sprintf("expression %s aliased (first seen in unit %s, again in unit %s)", n, prev.Name, u.Name)}
	}
	seen.exprs[n] = u
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
	case *Wildcard:
		return &ConsistencyError{Msg: fmt.Sprintf("unit %s: wildcard %s escaped into program text", u.Name, x.ID)}
	}
	return nil
}
