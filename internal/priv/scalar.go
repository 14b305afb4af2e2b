// Package priv implements Polaris' scalar and array privatization
// (Section 3.4 of the paper). A variable is privatizable in a loop when
// every use in an iteration is covered by a definition in the same
// iteration; each iteration then works on a private copy, removing
// memory-related (anti/output) dependences. Scalars use an
// upward-exposed-use analysis over the structured body; arrays use
// symbolic region analysis — the definition region of a covering write
// must contain every read region, with the comparisons discharged by
// the range machinery, GSA backward substitution (the paper's Figure 4)
// and monotonic-variable identification for compress/gather patterns
// (the paper's Figure 5, from BDNA).
package priv

import (
	"sort"

	"polaris/internal/deps"
	"polaris/internal/gsa"
	"polaris/internal/ir"
	"polaris/internal/rng"
	"polaris/internal/symbolic"
)

// Result reports the privatization decisions for one loop.
type Result struct {
	// PrivateScalars can be made private (includes inner DO indices).
	PrivateScalars []string
	// LastValue lists private scalars that are live after the loop and
	// definitely assigned every iteration: they need copy-out from the
	// last iteration.
	LastValue []string
	// PrivateArrays can be made private.
	PrivateArrays []string
	// Blocked maps variables that are written in the loop but not
	// privatizable to the reason; any entry not removed by reduction
	// recognition serializes the loop.
	Blocked map[string]string
}

type analyzer struct {
	unit   *ir.ProgramUnit
	ranges *rng.Analyzer
	gsa    *gsa.Analyzer
	// nest is the loop's one walk (package deps): its accesses, grouped
	// by array, and the scalars its body assigns.
	nest *deps.Nest
	loop *ir.DoStmt
	// loopRanges memoizes loopRangeResolved.
	loopRanges map[*ir.DoStmt]resolvedRange
}

type resolvedRange struct {
	lo, hi *symbolic.Expr
	ok     bool
}

// Analyze computes privatization for the loop nest is rooted at.
func Analyze(u *ir.ProgramUnit, ra *rng.Analyzer, nest *deps.Nest) *Result {
	a := &analyzer{unit: u, ranges: ra, gsa: gsa.New(u, ra.Leaves()), nest: nest, loop: nest.Root()}
	res := &Result{Blocked: map[string]string{}}
	a.scalars(res)
	a.arrays(res)
	sort.Strings(res.PrivateScalars)
	sort.Strings(res.LastValue)
	sort.Strings(res.PrivateArrays)
	return res
}

// scalars runs the upward-exposed-use analysis for every scalar
// assigned in the body.
func (a *analyzer) scalars(res *Result) {
	written := map[string]bool{}
	innerIndices := map[string]bool{}
	callTouched := map[string]bool{}
	ir.WalkStmts(a.loop.Body, func(s ir.Stmt) bool {
		switch x := s.(type) {
		case *ir.AssignStmt:
			if v, ok := x.LHS.(*ir.VarRef); ok {
				written[v.Name] = true
			}
		case *ir.DoStmt:
			innerIndices[x.Index] = true
		case *ir.CallStmt:
			for _, arg := range x.Args {
				if v, ok := arg.(*ir.VarRef); ok {
					if sym := a.unit.Symbols.Lookup(v.Name); sym != nil && !sym.IsArray() {
						callTouched[v.Name] = true
					}
				}
			}
		}
		return true
	})
	// Inner DO indices are private by construction.
	for idx := range innerIndices {
		res.PrivateScalars = append(res.PrivateScalars, idx)
	}
	names := make([]string, 0, len(written))
	for n := range written {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		if innerIndices[name] || name == a.loop.Index {
			continue
		}
		if callTouched[name] {
			res.Blocked[name] = "scalar passed to CALL in loop body"
			continue
		}
		exposed, definite := a.exposedUse(name)
		if exposed {
			res.Blocked[name] = "use of scalar not dominated by same-iteration definition"
			continue
		}
		if a.liveAfterLoop(name) {
			if !definite {
				res.Blocked[name] = "live-out scalar not assigned on every path"
				continue
			}
			res.PrivateScalars = append(res.PrivateScalars, name)
			res.LastValue = append(res.LastValue, name)
			continue
		}
		res.PrivateScalars = append(res.PrivateScalars, name)
	}
}

// exposedUse walks the body in execution order tracking whether the
// scalar is defined before each use within one iteration. It returns
// (exposed, definitelyAssignedAtEnd).
func (a *analyzer) exposedUse(name string) (exposed, definite bool) {
	defined := a.walkBlock(a.loop.Body, name, false, &exposed)
	return exposed, defined
}

// walkBlock returns whether the scalar is definitely defined after the
// block given the state at entry.
func (a *analyzer) walkBlock(b *ir.Block, name string, defined bool, exposed *bool) bool {
	for _, s := range b.Stmts {
		switch x := s.(type) {
		case *ir.AssignStmt:
			// RHS and LHS subscripts are uses, evaluated first.
			if !defined {
				if ir.References(x.RHS, name) {
					*exposed = true
				}
				if ar, ok := x.LHS.(*ir.ArrayRef); ok {
					for _, sub := range ar.Subs {
						if ir.References(sub, name) {
							*exposed = true
						}
					}
				}
			}
			if v, ok := x.LHS.(*ir.VarRef); ok && v.Name == name {
				defined = true
			}
		case *ir.IfStmt:
			if !defined && ir.References(x.Cond, name) {
				*exposed = true
			}
			dThen := a.walkBlock(x.Then, name, defined, exposed)
			dElse := defined
			if x.Else != nil {
				dElse = a.walkBlock(x.Else, name, defined, exposed)
			}
			defined = dThen && dElse
		case *ir.DoStmt:
			if !defined {
				for _, e := range ir.StmtExprs(x) {
					if ir.References(e, name) {
						*exposed = true
					}
				}
			}
			if x.Index == name {
				defined = true
			}
			// The first inner iteration sees the pre-loop state; later
			// iterations see at least as much. Conservatively: exposure
			// judged with the entry state, definiteness only if the
			// body cannot be skipped — unknown trip counts make that
			// indeterminate, so definedness after the loop reverts to
			// the entry state unless the body leaves it defined AND the
			// loop provably executes; we keep the conservative entry
			// state.
			bodyDefined := a.walkBlock(x.Body, name, defined, exposed)
			_ = bodyDefined
		case *ir.CallStmt:
			if !defined {
				for _, e := range x.Args {
					if ir.References(e, name) {
						*exposed = true
					}
				}
			}
		}
	}
	return defined
}

// liveAfterLoop conservatively decides whether the scalar may be read
// after the loop completes.
func (a *analyzer) liveAfterLoop(name string) bool {
	sym := a.unit.Symbols.Lookup(name)
	if sym != nil && (sym.Formal || sym.Common != "") {
		return true
	}
	inLoop := map[ir.Stmt]bool{a.loop: true}
	ir.WalkStmts(a.loop.Body, func(s ir.Stmt) bool { inLoop[s] = true; return true })
	live := false
	ir.WalkStmts(a.unit.Body, func(s ir.Stmt) bool {
		if inLoop[s] {
			return s == a.loop
		}
		for _, e := range ir.StmtExprs(s) {
			if ir.References(e, name) {
				live = true
			}
		}
		return !live
	})
	return live
}
