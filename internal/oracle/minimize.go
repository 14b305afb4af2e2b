package oracle

import (
	"context"

	"polaris/internal/ir"
	"polaris/internal/parser"
)

// MinimizeSource greedily shrinks a failing program: it repeatedly
// deletes the largest statement subtree whose removal keeps the failing
// predicate true, until no single deletion does. The candidate set is
// every statement of every block (loop bodies, IF arms, top level), so
// whole nests vanish in one step when they are irrelevant. The result
// always parses — candidates are produced by re-rendering the IR.
//
// The predicate must return true when the candidate source still
// exhibits the failure. It is never called with unparseable input.
func MinimizeSource(ctx context.Context, src string, failing func(context.Context, string) bool) string {
	cur := src
	for {
		prog, err := parser.ParseProgram(cur)
		if err != nil {
			return cur
		}
		removed := false
		for {
			if ctx.Err() != nil {
				return cur
			}
			blk, idx := bestCandidate(prog, func(p *ir.Program) bool {
				return failing(ctx, p.Fortran())
			})
			if blk == nil {
				break
			}
			blk.Remove(idx)
			cur = prog.Fortran()
			removed = true
		}
		if !removed {
			return cur
		}
		// One more outer round: removals can expose new opportunities
		// (e.g. a loop whose body just emptied).
	}
}

// bestCandidate finds the largest-subtree statement whose removal keeps
// still(prog) true, trying candidates biggest-first and reverting each
// rejected removal. Returns (nil, 0) when no removal survives.
func bestCandidate(prog *ir.Program, still func(*ir.Program) bool) (*ir.Block, int) {
	type cand struct {
		blk  *ir.Block
		idx  int
		size int
	}
	var cands []cand
	for _, u := range prog.Units {
		var walk func(b *ir.Block)
		walk = func(b *ir.Block) {
			if b == nil {
				return
			}
			for i, s := range b.Stmts {
				cands = append(cands, cand{b, i, stmtSize(s)})
				switch x := s.(type) {
				case *ir.DoStmt:
					walk(x.Body)
				case *ir.IfStmt:
					walk(x.Then)
					walk(x.Else)
				}
			}
		}
		walk(u.Body)
	}
	// Stable biggest-first order.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].size > cands[j-1].size; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	for _, c := range cands {
		s := c.blk.Remove(c.idx)
		if still(prog) {
			c.blk.Insert(c.idx, s)
			return c.blk, c.idx
		}
		c.blk.Insert(c.idx, s)
	}
	return nil, 0
}

// stmtSize counts statements in a subtree (deletion payoff).
func stmtSize(s ir.Stmt) int {
	n := 1
	switch x := s.(type) {
	case *ir.DoStmt:
		for _, c := range x.Body.Stmts {
			n += stmtSize(c)
		}
	case *ir.IfStmt:
		if x.Then != nil {
			for _, c := range x.Then.Stmts {
				n += stmtSize(c)
			}
		}
		if x.Else != nil {
			for _, c := range x.Else.Stmts {
				n += stmtSize(c)
			}
		}
	}
	return n
}
