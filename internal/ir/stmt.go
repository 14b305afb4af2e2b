package ir

import "slices"

// Stmt is a node in the statement tree of a program unit. Like
// expressions, statements are never shared; Clone produces deep copies.
type Stmt interface {
	Clone() Stmt
	stmtNode()
}

// Block is an ordered list of statements (the Polaris StmtList). The
// high-level member functions of the paper's StmtList — iteration over
// selected statements, well-formed insertion and deletion — are methods
// here and in walk.go.
type Block struct {
	Stmts []Stmt
}

// NewBlock returns a block holding the given statements.
func NewBlock(stmts ...Stmt) *Block { return &Block{Stmts: stmts} }

// Clone returns a deep copy of the block.
func (b *Block) Clone() *Block {
	if b == nil {
		return nil
	}
	c := &Block{Stmts: make([]Stmt, len(b.Stmts))}
	for i, s := range b.Stmts {
		c.Stmts[i] = s.Clone()
	}
	return c
}

// Insert places stmts before position i. Insert(len, ...) appends. The
// tail moves in place when the block has room for stmts.
func (b *Block) Insert(i int, stmts ...Stmt) {
	Assert(i >= 0 && i <= len(b.Stmts), "Block.Insert: position out of range")
	b.Stmts = slices.Insert(b.Stmts, i, stmts...)
}

// Append adds stmts at the end of the block.
func (b *Block) Append(stmts ...Stmt) { b.Stmts = append(b.Stmts, stmts...) }

// Remove deletes the statement at position i and returns it.
func (b *Block) Remove(i int) Stmt {
	Assert(i >= 0 && i < len(b.Stmts), "Block.Remove: position out of range")
	s := b.Stmts[i]
	b.Stmts = append(b.Stmts[:i], b.Stmts[i+1:]...)
	return s
}

// RemoveStmt deletes the first occurrence of s (by identity) anywhere in
// the block tree and reports whether it was found.
func (b *Block) RemoveStmt(s Stmt) bool {
	for i, st := range b.Stmts {
		if st == s {
			b.Remove(i)
			return true
		}
		switch x := st.(type) {
		case *DoStmt:
			if x.Body.RemoveStmt(s) {
				return true
			}
		case *IfStmt:
			if x.Then.RemoveStmt(s) {
				return true
			}
			if x.Else != nil && x.Else.RemoveStmt(s) {
				return true
			}
		}
	}
	return false
}

// IndexOf returns the position of s in the top level of the block, or -1.
func (b *Block) IndexOf(s Stmt) int {
	for i, st := range b.Stmts {
		if st == s {
			return i
		}
	}
	return -1
}

// AssignStmt is "LHS = RHS". LHS is a *VarRef or *ArrayRef.
type AssignStmt struct {
	LHS Expr
	RHS Expr
}

// Reduction describes a recognized reduction in a loop: Target is the
// scalar or array being accumulated into, Op the associative operator
// ("+", "*", "MAX", "MIN"). Histogram reductions (different array
// elements across iterations) have Histogram set.
type Reduction struct {
	Target    string
	Op        string
	Histogram bool
}

// ParInfo carries the parallelization verdict and clauses attached to a
// DO loop by the analysis passes.
type ParInfo struct {
	// Parallel marks the loop as a DOALL.
	Parallel bool
	// Reason records why the loop was or was not parallelized, for
	// reports and for EXPERIMENTS.md comparisons.
	Reason string
	// Private lists privatized scalar variables.
	Private []string
	// PrivateArrays lists privatized arrays.
	PrivateArrays []string
	// LastValue lists privatized scalars whose final value is live-out
	// and must be copied out of the last iteration.
	LastValue []string
	// Reductions lists recognized reductions.
	Reductions []Reduction
	// LRPD lists shared arrays whose access pattern is unknown at
	// compile time; the loop is a candidate for speculative run-time
	// parallelization (the PD test) over these arrays.
	LRPD []string
}

// Clone deep-copies the annotation.
func (p *ParInfo) Clone() *ParInfo {
	if p == nil {
		return nil
	}
	c := *p
	c.Private = append([]string(nil), p.Private...)
	c.PrivateArrays = append([]string(nil), p.PrivateArrays...)
	c.LastValue = append([]string(nil), p.LastValue...)
	c.Reductions = append([]Reduction(nil), p.Reductions...)
	c.LRPD = append([]string(nil), p.LRPD...)
	return &c
}

// DoStmt is "DO Index = Init, Limit [, Step] ... END DO". Step nil
// means 1. Par is nil until analysis runs.
type DoStmt struct {
	Index string
	Init  Expr
	Limit Expr
	Step  Expr
	Body  *Block
	Par   *ParInfo
	// ID is the stable loop identity ("MAIN/L30") assigned by the
	// analysis driver, linking compile-time decision records to runtime
	// execution metrics. Empty until analysis runs; preserved by Clone.
	ID string
}

// IfStmt is a block IF; Else may be nil. A logical IF is represented
// as an IfStmt whose Then block holds one statement and whose Else is nil.
type IfStmt struct {
	Cond Expr
	Then *Block
	Else *Block
}

// CallStmt is "CALL Name(Args)".
type CallStmt struct {
	Name string
	Args []Expr
}

// ReturnStmt is "RETURN".
type ReturnStmt struct{}

// StopStmt is "STOP".
type StopStmt struct{}

// ContinueStmt is "CONTINUE" (a no-op).
type ContinueStmt struct{}

// CommentStmt preserves a source comment or compiler-inserted note.
type CommentStmt struct {
	Text string
}

func (*AssignStmt) stmtNode()   {}
func (*DoStmt) stmtNode()       {}
func (*IfStmt) stmtNode()       {}
func (*CallStmt) stmtNode()     {}
func (*ReturnStmt) stmtNode()   {}
func (*StopStmt) stmtNode()     {}
func (*ContinueStmt) stmtNode() {}
func (*CommentStmt) stmtNode()  {}

// Clone returns a deep copy.
func (s *AssignStmt) Clone() Stmt { return &AssignStmt{LHS: s.LHS.Clone(), RHS: s.RHS.Clone()} }

// Clone returns a deep copy, including the parallel annotation and the
// loop ID.
func (s *DoStmt) Clone() Stmt {
	c := &DoStmt{Index: s.Index, Init: s.Init.Clone(), Limit: s.Limit.Clone(), Body: s.Body.Clone(), Par: s.Par.Clone(), ID: s.ID}
	if s.Step != nil {
		c.Step = s.Step.Clone()
	}
	return c
}

// Clone returns a deep copy.
func (s *IfStmt) Clone() Stmt {
	c := &IfStmt{Cond: s.Cond.Clone(), Then: s.Then.Clone()}
	if s.Else != nil {
		c.Else = s.Else.Clone()
	}
	return c
}

// Clone returns a deep copy.
func (s *CallStmt) Clone() Stmt {
	c := &CallStmt{Name: s.Name, Args: make([]Expr, len(s.Args))}
	for i, a := range s.Args {
		c.Args[i] = a.Clone()
	}
	return c
}

// Clone returns a copy.
func (s *ReturnStmt) Clone() Stmt { return &ReturnStmt{} }

// Clone returns a copy.
func (s *StopStmt) Clone() Stmt { return &StopStmt{} }

// Clone returns a copy.
func (s *ContinueStmt) Clone() Stmt { return &ContinueStmt{} }

// Clone returns a copy.
func (s *CommentStmt) Clone() Stmt { return &CommentStmt{Text: s.Text} }

// StepOr1 returns the loop step, or the constant 1 if none was written.
func (s *DoStmt) StepOr1() Expr {
	if s.Step == nil {
		return Int(1)
	}
	return s.Step
}
