package ir

// WalkStmts calls fn for every statement in the block tree, pre-order.
// If fn returns false, the statement's nested blocks are skipped.
func WalkStmts(b *Block, fn func(Stmt) bool) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		if !fn(s) {
			continue
		}
		switch x := s.(type) {
		case *DoStmt:
			WalkStmts(x.Body, fn)
		case *IfStmt:
			WalkStmts(x.Then, fn)
			WalkStmts(x.Else, fn)
		}
	}
}

// Loops returns every DO statement in the block tree, outermost first.
func Loops(b *Block) []*DoStmt {
	var out []*DoStmt
	WalkStmts(b, func(s Stmt) bool {
		if d, ok := s.(*DoStmt); ok {
			out = append(out, d)
		}
		return true
	})
	return out
}

// OuterLoops returns the top-level DO statements of the block (loops not
// nested in another loop, though possibly under IFs).
func OuterLoops(b *Block) []*DoStmt {
	var out []*DoStmt
	var walk func(*Block)
	walk = func(blk *Block) {
		if blk == nil {
			return
		}
		for _, s := range blk.Stmts {
			switch x := s.(type) {
			case *DoStmt:
				out = append(out, x)
			case *IfStmt:
				walk(x.Then)
				walk(x.Else)
			}
		}
	}
	walk(b)
	return out
}

// InnerLoops returns the DO statements directly nested in d (not within
// deeper loops).
func InnerLoops(d *DoStmt) []*DoStmt { return OuterLoops(d.Body) }

// StmtExprs returns the expressions directly held by s (not those of
// nested statements): assignment sides, loop bounds, conditions, call
// arguments. Mutating the returned expressions mutates the statement.
func StmtExprs(s Stmt) []Expr {
	switch x := s.(type) {
	case *AssignStmt:
		return []Expr{x.LHS, x.RHS}
	case *DoStmt:
		out := []Expr{x.Init, x.Limit}
		if x.Step != nil {
			out = append(out, x.Step)
		}
		return out
	case *IfStmt:
		return []Expr{x.Cond}
	case *CallStmt:
		return x.Args
	}
	return nil
}

// WalkStmtExprs calls fn for every expression node reachable from every
// statement in the block tree, including nested statements.
func WalkStmtExprs(b *Block, fn func(Expr) bool) {
	WalkStmts(b, func(s Stmt) bool {
		for _, e := range StmtExprs(s) {
			WalkExpr(e, fn)
		}
		return true
	})
}

// MapStmtExprs rewrites every expression of every statement in the block
// tree using MapExpr with fn.
func MapStmtExprs(b *Block, fn func(Expr) Expr) {
	WalkStmts(b, func(s Stmt) bool {
		switch x := s.(type) {
		case *AssignStmt:
			x.LHS = MapExpr(x.LHS, fn)
			x.RHS = MapExpr(x.RHS, fn)
		case *DoStmt:
			x.Init = MapExpr(x.Init, fn)
			x.Limit = MapExpr(x.Limit, fn)
			if x.Step != nil {
				x.Step = MapExpr(x.Step, fn)
			}
		case *IfStmt:
			x.Cond = MapExpr(x.Cond, fn)
		case *CallStmt:
			for i, a := range x.Args {
				x.Args[i] = MapExpr(a, fn)
			}
		}
		return true
	})
}

// ReferencesVar reports whether any statement in the block tree
// references name (scalar or array).
func ReferencesVar(b *Block, name string) bool {
	found := false
	WalkStmtExprs(b, func(e Expr) bool {
		switch x := e.(type) {
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
	if found {
		return true
	}
	// DO indices are references too.
	WalkStmts(b, func(s Stmt) bool {
		if d, ok := s.(*DoStmt); ok && d.Index == name {
			found = true
		}
		return !found
	})
	return found
}

// CountStmts returns the number of statements in the block tree.
func CountStmts(b *Block) int {
	n := 0
	WalkStmts(b, func(Stmt) bool { n++; return true })
	return n
}

// EnclosingLoops returns the chain of DO loops (outermost first) that
// enclose target within the block tree rooted at b. It returns nil if
// target is not found. The target itself is not included.
func EnclosingLoops(b *Block, target Stmt) []*DoStmt {
	var path []*DoStmt
	var found []*DoStmt
	var walk func(*Block) bool
	walk = func(blk *Block) bool {
		if blk == nil {
			return false
		}
		for _, s := range blk.Stmts {
			if s == target {
				found = append([]*DoStmt(nil), path...)
				return true
			}
			switch x := s.(type) {
			case *DoStmt:
				path = append(path, x)
				if walk(x.Body) {
					return true
				}
				path = path[:len(path)-1]
			case *IfStmt:
				if walk(x.Then) || walk(x.Else) {
					return true
				}
			}
		}
		return false
	}
	if !walk(b) {
		return nil
	}
	return found
}

// ContainsStmt reports whether target occurs in the block tree.
func ContainsStmt(b *Block, target Stmt) bool {
	found := false
	WalkStmts(b, func(s Stmt) bool {
		if s == target {
			found = true
		}
		return !found
	})
	return found
}
