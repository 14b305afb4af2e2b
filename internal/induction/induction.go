// Package induction implements Polaris' generalized induction variable
// substitution (Section 3.2 of the paper): recognition of additive
// recurrences K = K + expr — including cascaded induction variables
// (increments referencing other induction variables) and triangular
// loop nests (inner bounds depending on outer indices) — computation of
// closed forms by symbolic summation across the iteration space, and
// substitution of all uses, with a last-value assignment when the
// variable is live after the loop. Simple multiplicative recurrences
// K = K * c are solved as geometric progressions.
package induction

import (
	"fmt"

	"polaris/internal/gsa"
	"polaris/internal/ir"
	"polaris/internal/rng"
	"polaris/internal/symbolic"
)

// Solved describes one substituted induction variable.
type Solved struct {
	Name string
	// Loop is the outermost loop of the nest the variable was solved in.
	Loop *ir.DoStmt
	// ClosedForm is the value at the top of an iteration of the
	// outermost loop, for reports.
	ClosedForm string
	// Multiplicative marks geometric recurrences.
	Multiplicative bool
}

// Result reports what the pass did.
type Result struct {
	Solved []Solved
}

// Options restricts the solver's generality.
type Options struct {
	// SimpleOnly limits recognition to what the paper says existing
	// compilers could do: constant increments in the loop the variable
	// is defined in, no cascaded variables, no triangular summation
	// (the increment must not involve loop indices).
	SimpleOnly bool
}

// RunWith performs induction variable substitution, under the
// generality options, on every loop nest of the unit, outermost nests
// first (larger substitution scope wins), then inner nests — which
// catches variables reinitialized per outer iteration, like X = X0 in
// the paper's TRFD example, whose entry value GSA resolves. It
// iterates to a fixpoint so cascaded induction variables (K2 = K2 + K1
// with K1 itself an induction variable) are solved once their feeders
// have been substituted.
func RunWith(u *ir.ProgramUnit, ranges *rng.Analyzer, opt Options) *Result {
	res := &Result{}
	for {
		progress := false
		for _, loop := range ir.Loops(u.Body) {
			if runNest(u, ranges, loop, opt, res) {
				progress = true
				break // the IR changed; rescan from the top
			}
		}
		if !progress {
			return res
		}
	}
}

// runNest solves at most one induction variable in the nest rooted at
// loop, returning whether it made progress (the caller iterates).
func runNest(u *ir.ProgramUnit, ranges *rng.Analyzer, loop *ir.DoStmt, opt Options, res *Result) bool {
	cands := findCandidates(u, loop)
	for _, c := range cands {
		if opt.SimpleOnly && !isSimpleCandidate(ranges, loop, c) {
			continue
		}
		s := &solver{unit: u, ranges: ranges, loop: loop, cand: c}
		if s.solve() {
			res.Solved = append(res.Solved, Solved{
				Name:           c.name,
				Loop:           loop,
				ClosedForm:     s.report,
				Multiplicative: c.multiplicative,
			})
			return true
		}
	}
	return false
}

// isSimpleCandidate keeps only 1996-vendor-level inductions: every def
// sits directly in the root loop body (not in inner loops), with a
// constant increment.
func isSimpleCandidate(ranges *rng.Analyzer, loop *ir.DoStmt, c *candidate) bool {
	if c.multiplicative {
		return false
	}
	for _, def := range c.defs {
		found := false
		for _, s := range loop.Body.Stmts {
			if s == def {
				found = true
			}
		}
		if !found {
			return false
		}
		inc, _ := matchAdditive(c.name, def.RHS)
		conv := ranges.Conv(inc)
		if !conv.OK {
			return false
		}
		if _, isConst := conv.E.ConstSign(); !isConst {
			return false
		}
	}
	return true
}

// candidate is a scalar whose only definitions inside the nest are
// unconditional additive (or uniform multiplicative) self-updates.
type candidate struct {
	name           string
	defs           []*ir.AssignStmt
	multiplicative bool
}

// findCandidates scans the nest for induction candidates.
func findCandidates(u *ir.ProgramUnit, loop *ir.DoStmt) []*candidate {
	// Collect all assignments per scalar and whether any def is
	// conditional (under an IF inside the nest) or non-recurrence.
	type info struct {
		adds, muls []*ir.AssignStmt
		bad        bool
	}
	infos := map[string]*info{}
	// order records first encounter: candidates must come out in
	// program order, or the exit-value assignments the solver inserts
	// after the loop would shuffle between compilations.
	var order []string
	get := func(n string) *info {
		if infos[n] == nil {
			infos[n] = &info{}
			order = append(order, n)
		}
		return infos[n]
	}
	var walk func(b *ir.Block, underIf bool)
	walk = func(b *ir.Block, underIf bool) {
		for _, s := range b.Stmts {
			switch x := s.(type) {
			case *ir.AssignStmt:
				v, isScalar := x.LHS.(*ir.VarRef)
				if !isScalar {
					continue
				}
				in := get(v.Name)
				if underIf {
					in.bad = true
					continue
				}
				if add, ok := matchAdditive(v.Name, x.RHS); ok && add != nil {
					in.adds = append(in.adds, x)
				} else if ok2 := matchMultiplicative(v.Name, x.RHS); ok2 {
					in.muls = append(in.muls, x)
				} else {
					in.bad = true
				}
			case *ir.CallStmt:
				for _, arg := range x.Args {
					if v, ok := arg.(*ir.VarRef); ok {
						get(v.Name).bad = true
					}
				}
			case *ir.DoStmt:
				get(x.Index).bad = true
				walk(x.Body, underIf)
			case *ir.IfStmt:
				walk(x.Then, true)
				if x.Else != nil {
					walk(x.Else, true)
				}
			}
		}
	}
	walk(loop.Body, false)
	get(loop.Index).bad = true

	var out []*candidate
	for _, name := range order {
		in := infos[name]
		if in.bad {
			continue
		}
		sym := u.Symbols.Lookup(name)
		if sym == nil || sym.Type != ir.TypeInteger && len(in.muls) == 0 {
			// Additive real accumulators are reductions, not inductions.
			continue
		}
		switch {
		case len(in.adds) > 0 && len(in.muls) == 0:
			out = append(out, &candidate{name: name, defs: in.adds})
		case len(in.muls) == 1 && len(in.adds) == 0:
			out = append(out, &candidate{name: name, defs: in.muls, multiplicative: true})
		}
	}
	return out
}

// matchAdditive matches K = K + e or K = e + K or K = K - e with e not
// referencing K, returning the increment (negated for subtraction).
func matchAdditive(name string, rhs ir.Expr) (ir.Expr, bool) {
	b, ok := rhs.(*ir.Binary)
	if !ok {
		return nil, false
	}
	isK := func(e ir.Expr) bool {
		v, ok := e.(*ir.VarRef)
		return ok && v.Name == name
	}
	switch {
	case b.Op == ir.OpAdd && isK(b.L) && !ir.References(b.R, name):
		return b.R, true
	case b.Op == ir.OpAdd && isK(b.R) && !ir.References(b.L, name):
		return b.L, true
	case b.Op == ir.OpSub && isK(b.L) && !ir.References(b.R, name):
		return ir.Neg(b.R.Clone()), true
	}
	return nil, false
}

// matchMultiplicative matches K = K * e or K = e * K with e not
// referencing K.
func matchMultiplicative(name string, rhs ir.Expr) bool {
	b, ok := rhs.(*ir.Binary)
	if !ok || b.Op != ir.OpMul {
		return false
	}
	isK := func(e ir.Expr) bool {
		v, ok := e.(*ir.VarRef)
		return ok && v.Name == name
	}
	return (isK(b.L) && !ir.References(b.R, name)) || (isK(b.R) && !ir.References(b.L, name))
}

// solver substitutes one candidate in one nest.
type solver struct {
	unit   *ir.ProgramUnit
	ranges *rng.Analyzer
	loop   *ir.DoStmt
	cand   *candidate
	report string
}

// solve validates the candidate and performs the substitution. It
// returns false (leaving the unit untouched) when any precondition
// fails.
func (s *solver) solve() bool {
	if s.cand.multiplicative {
		return s.solveMultiplicative()
	}
	// Validate increments and loop structure: every increment must be a
	// polynomial in enclosing loop indices and loop-invariant scalars.
	if !s.validate(s.loop) {
		return false
	}
	total, ok := s.incOfBlock(s.loop.Body)
	if !ok {
		return false
	}
	lo, hi, okR := s.loopRangeUnitStep(s.loop)
	if !okR {
		return false
	}
	entry := s.entryValue()
	// Value at the top of iteration <index> of the outer loop.
	prefix, ok := symbolic.SumPrefix(total, s.loop.Index, lo, symbolic.Var(s.loop.Index))
	if !ok {
		return false
	}
	topVal := symbolic.Add(entry, prefix)
	s.report = topVal.String()

	// Rewrite uses, delete defs.
	endVal, ok := s.substituteBlock(s.loop.Body, topVal)
	if !ok {
		return false
	}
	_ = endVal
	// Last value after the whole nest.
	finalSum, ok := symbolic.SumClosed(total, s.loop.Index, lo, hi)
	if !ok {
		return false
	}
	s.deleteDefs()
	if s.isLiveAfter() {
		final := symbolic.Add(entry, finalSum)
		s.insertAfterLoop(&ir.AssignStmt{LHS: ir.Var(s.cand.name), RHS: symbolic.ToIR(final)})
	}
	return true
}

// validate checks the whole nest: no IF contains defs of the candidate
// (guaranteed by findCandidates), all increments convert to polynomials
// over enclosing indices and invariant scalars, every loop containing a
// def or on the path to one has unit step and convertible bounds not
// referencing the candidate.
func (s *solver) validate(d *ir.DoStmt) bool {
	// A loop whose body increments the candidate must not use the
	// candidate in its own bounds (the summation would be circular);
	// bounds of increment-free inner loops referencing the candidate
	// are ordinary uses, substituted at loop entry (tfft2's
	// "DO G = 1, LEN/(2*S)" pattern).
	touches := s.blockTouches(d.Body)
	if (touches || d == s.loop) &&
		(ir.References(d.Init, s.cand.name) || ir.References(d.Limit, s.cand.name) ||
			(d.Step != nil && ir.References(d.Step, s.cand.name))) {
		return false
	}
	if touches {
		if _, _, ok := s.loopRangeUnitStep(d); !ok {
			return false
		}
	}
	for _, st := range d.Body.Stmts {
		switch x := st.(type) {
		case *ir.DoStmt:
			if !s.validate(x) {
				return false
			}
		case *ir.AssignStmt:
			if s.isDef(x) {
				inc, _ := matchAdditive(s.cand.name, x.RHS)
				if !s.incOK(inc, st) {
					return false
				}
			}
		}
	}
	return true
}

// incOK checks that an increment expression is analyzable: it converts
// to a polynomial whose variables are enclosing loop indices or scalars
// invariant in the nest, with no opaque terms.
func (s *solver) incOK(inc ir.Expr, at ir.Stmt) bool {
	conv := s.ranges.Conv(inc)
	if !conv.OK || conv.E.HasOpaque() {
		return false
	}
	indices := map[string]bool{s.loop.Index: true}
	for _, d := range ir.Loops(s.loop.Body) {
		indices[d.Index] = true
	}
	for v := range conv.E.Vars() {
		if indices[v] {
			continue
		}
		if s.assignedInNest(v) {
			return false
		}
	}
	return true
}

func (s *solver) assignedInNest(name string) bool {
	found := false
	ir.WalkStmts(s.loop.Body, func(st ir.Stmt) bool {
		switch x := st.(type) {
		case *ir.AssignStmt:
			if v, ok := x.LHS.(*ir.VarRef); ok && v.Name == name {
				found = true
			}
		case *ir.CallStmt:
			for _, a := range x.Args {
				if v, ok := a.(*ir.VarRef); ok && v.Name == name {
					found = true
				}
			}
		case *ir.DoStmt:
			if x.Index == name {
				found = true
			}
		}
		return !found
	})
	return found
}

func (s *solver) isDef(st ir.Stmt) bool {
	for _, d := range s.cand.defs {
		if st == d {
			return true
		}
	}
	return false
}

func (s *solver) blockTouches(b *ir.Block) bool {
	found := false
	ir.WalkStmts(b, func(st ir.Stmt) bool {
		if s.isDef(st) {
			found = true
		}
		return !found
	})
	return found
}

// incOfBlock returns the symbolic total increment of one execution of
// the block, as a function of enclosing loop indices.
func (s *solver) incOfBlock(b *ir.Block) (*symbolic.Expr, bool) {
	total := symbolic.Zero()
	for _, st := range b.Stmts {
		switch x := st.(type) {
		case *ir.AssignStmt:
			if s.isDef(x) {
				inc, _ := matchAdditive(s.cand.name, x.RHS)
				conv := s.ranges.Conv(inc)
				if !conv.OK {
					return nil, false
				}
				total = symbolic.Add(total, conv.E)
			}
		case *ir.DoStmt:
			if !s.blockTouches(x.Body) {
				continue
			}
			inner, ok := s.incOfBlock(x.Body)
			if !ok {
				return nil, false
			}
			lo, hi, okR := s.loopRangeUnitStep(x)
			if !okR {
				return nil, false
			}
			sum, ok := symbolic.SumClosed(inner, x.Index, lo, hi)
			if !ok {
				return nil, false
			}
			total = symbolic.Add(total, sum)
		case *ir.IfStmt:
			if s.blockTouches(x.Then) || (x.Else != nil && s.blockTouches(x.Else)) {
				return nil, false
			}
		}
	}
	return total, true
}

func (s *solver) loopRangeUnitStep(d *ir.DoStmt) (lo, hi *symbolic.Expr, ok bool) {
	step := s.ranges.Conv(d.StepOr1())
	if !step.OK {
		return nil, nil, false
	}
	if c, isC := step.E.ConstInt64(); !isC || c != 1 {
		return nil, nil, false
	}
	init := s.ranges.Conv(d.Init)
	limit := s.ranges.Conv(d.Limit)
	if !init.OK || !limit.OK {
		return nil, nil, false
	}
	return init.E, limit.E, true
}

// entryValue returns the symbolic value of the candidate entering the
// nest: the GSA-resolved value when it is a closed expression, or the
// variable itself (valid because after substitution no definition
// remains inside the nest, so the name holds its entry value
// throughout).
func (s *solver) entryValue() *symbolic.Expr {
	g := gsa.New(s.unit, s.ranges.Leaves())
	v := g.ValueBefore(s.loop, s.cand.name, gsa.DefaultDepth)
	if !v.HasOpaque() {
		return v
	}
	return symbolic.Var(s.cand.name)
}

// substituteBlock rewrites all uses of the candidate in the block given
// its value at block entry, returning the value at block exit.
func (s *solver) substituteBlock(b *ir.Block, val *symbolic.Expr) (*symbolic.Expr, bool) {
	for _, st := range b.Stmts {
		switch x := st.(type) {
		case *ir.AssignStmt:
			if s.isDef(x) {
				inc, _ := matchAdditive(s.cand.name, x.RHS)
				conv := s.ranges.Conv(inc)
				if !conv.OK {
					return nil, false
				}
				// Uses inside the increment see the pre-increment value;
				// the statement is deleted later, but its RHS may contain
				// other substitutable uses only of OTHER variables, and
				// the increment itself cannot reference the candidate.
				val = symbolic.Add(val, conv.E)
				continue
			}
			s.replaceUses(x, val)
		case *ir.DoStmt:
			s.replaceUsesDoHeader(x, val)
			if s.blockTouches(x.Body) {
				inner, _ := s.incOfBlock(x.Body)
				lo, hi, _ := s.loopRangeUnitStep(x)
				prefix, ok := symbolic.SumPrefix(inner, x.Index, lo, symbolic.Var(x.Index))
				if !ok {
					return nil, false
				}
				if _, ok := s.substituteBlock(x.Body, symbolic.Add(val, prefix)); !ok {
					return nil, false
				}
				totalInner, ok := symbolic.SumClosed(inner, x.Index, lo, hi)
				if !ok {
					return nil, false
				}
				val = symbolic.Add(val, totalInner)
			} else {
				if _, ok := s.substituteBlock(x.Body, val); !ok {
					return nil, false
				}
			}
		case *ir.IfStmt:
			s.replaceUsesIfCond(x, val)
			if _, ok := s.substituteBlock(x.Then, val); !ok {
				return nil, false
			}
			if x.Else != nil {
				if _, ok := s.substituteBlock(x.Else, val); !ok {
					return nil, false
				}
			}
		case *ir.CallStmt:
			// validate() rejects candidates passed to calls; other
			// arguments may still use the value.
			for i, a := range x.Args {
				x.Args[i] = s.substExpr(a, val)
			}
		}
	}
	return val, true
}

func (s *solver) substExpr(e ir.Expr, val *symbolic.Expr) ir.Expr {
	if !ir.References(e, s.cand.name) {
		return e
	}
	repl := symbolic.ToIR(val)
	return ir.SubstVar(e, s.cand.name, repl)
}

func (s *solver) replaceUses(x *ir.AssignStmt, val *symbolic.Expr) {
	x.RHS = s.substExpr(x.RHS, val)
	if a, ok := x.LHS.(*ir.ArrayRef); ok {
		for i, sub := range a.Subs {
			a.Subs[i] = s.substExpr(sub, val)
		}
	}
}

func (s *solver) replaceUsesDoHeader(x *ir.DoStmt, val *symbolic.Expr) {
	x.Init = s.substExpr(x.Init, val)
	x.Limit = s.substExpr(x.Limit, val)
	if x.Step != nil {
		x.Step = s.substExpr(x.Step, val)
	}
}

func (s *solver) replaceUsesIfCond(x *ir.IfStmt, val *symbolic.Expr) {
	x.Cond = s.substExpr(x.Cond, val)
}

func (s *solver) deleteDefs() {
	for _, d := range s.cand.defs {
		ok := s.loop.Body.RemoveStmt(d)
		ir.Assert(ok, fmt.Sprintf("induction: def of %s vanished before deletion", s.cand.name))
	}
}

// isLiveAfter conservatively reports whether the candidate may be used
// after the nest: referenced anywhere outside the nest in this unit, or
// visible outside the unit (formal / COMMON).
func (s *solver) isLiveAfter() bool {
	sym := s.unit.Symbols.Lookup(s.cand.name)
	if sym != nil && (sym.Formal || sym.Common != "") {
		return true
	}
	// Count references in the whole unit vs inside the nest; any excess
	// means an outside reference.
	outside := false
	inNest := map[ir.Stmt]bool{}
	ir.WalkStmts(s.loop.Body, func(st ir.Stmt) bool { inNest[st] = true; return true })
	inNest[s.loop] = true
	ir.WalkStmts(s.unit.Body, func(st ir.Stmt) bool {
		if inNest[st] {
			return st == s.loop // don't descend into the nest twice
		}
		for _, e := range ir.StmtExprs(st) {
			if ir.References(e, s.cand.name) {
				outside = true
			}
		}
		return !outside
	})
	return outside
}

func (s *solver) insertAfterLoop(st ir.Stmt) {
	var insert func(b *ir.Block) bool
	insert = func(b *ir.Block) bool {
		for i, x := range b.Stmts {
			if x == s.loop {
				b.Insert(i+1, st)
				return true
			}
			switch y := x.(type) {
			case *ir.DoStmt:
				if insert(y.Body) {
					return true
				}
			case *ir.IfStmt:
				if insert(y.Then) {
					return true
				}
				if y.Else != nil && insert(y.Else) {
					return true
				}
			}
		}
		return false
	}
	ok := insert(s.unit.Body)
	ir.Assert(ok, "induction: loop not found for last-value insertion")
}

// solveMultiplicative handles K = K * c with c a loop-invariant scalar
// or constant, in a rectangular nest: uses become K * c**(count of
// prior executions), computed with the same summation machinery
// counting 1 per execution.
func (s *solver) solveMultiplicative() bool {
	if len(s.cand.defs) != 1 {
		return false
	}
	def := s.cand.defs[0]
	rhs := def.RHS.(*ir.Binary)
	var factor ir.Expr
	if v, ok := rhs.L.(*ir.VarRef); ok && v.Name == s.cand.name {
		factor = rhs.R
	} else {
		factor = rhs.L
	}
	fc := s.ranges.Conv(factor)
	if !fc.OK || fc.E.HasOpaque() {
		return false
	}
	for v := range fc.E.Vars() {
		if s.assignedInNest(v) {
			return false
		}
	}
	if !s.validateMultiplicative(s.loop) {
		return false
	}
	// Count executions exactly like an additive induction with inc 1.
	counter := &solver{unit: s.unit, ranges: s.ranges, loop: s.loop,
		cand: &candidate{name: s.cand.name, defs: s.cand.defs}}
	countTotal, ok := counter.incOfCount(s.loop.Body)
	if !ok {
		return false
	}
	lo, hi, okR := s.loopRangeUnitStep(s.loop)
	if !okR {
		return false
	}
	prefix, ok := symbolic.SumPrefix(countTotal, s.loop.Index, lo, symbolic.Var(s.loop.Index))
	if !ok {
		return false
	}
	entry := symbolic.ToIR(s.entryValue())
	s.report = fmt.Sprintf("%s * %s**(%s)", entry, factor, prefix)
	if !s.substituteMultBlock(s.loop.Body, prefix, factor, entry) {
		return false
	}
	finalCount, ok := symbolic.SumClosed(countTotal, s.loop.Index, lo, hi)
	if !ok {
		return false
	}
	s.deleteDefs()
	if s.isLiveAfter() {
		s.insertAfterLoop(&ir.AssignStmt{
			LHS: ir.Var(s.cand.name),
			RHS: ir.Mul(entry.Clone(), ir.Bin(ir.OpPow, factor.Clone(), symbolic.ToIR(finalCount))),
		})
	}
	return true
}

func (s *solver) validateMultiplicative(d *ir.DoStmt) bool {
	touches := s.blockTouches(d.Body)
	if (touches || d == s.loop) &&
		(ir.References(d.Init, s.cand.name) || ir.References(d.Limit, s.cand.name)) {
		return false
	}
	if touches {
		if _, _, ok := s.loopRangeUnitStep(d); !ok {
			return false
		}
	}
	for _, st := range d.Body.Stmts {
		if x, ok := st.(*ir.DoStmt); ok {
			if !s.validateMultiplicative(x) {
				return false
			}
		}
	}
	return true
}

// incOfCount counts executions of the candidate's defs per block run.
func (s *solver) incOfCount(b *ir.Block) (*symbolic.Expr, bool) {
	total := symbolic.Zero()
	for _, st := range b.Stmts {
		switch x := st.(type) {
		case *ir.AssignStmt:
			if s.isDef(x) {
				total = symbolic.Add(total, symbolic.Int(1))
			}
		case *ir.DoStmt:
			if !s.blockTouches(x.Body) {
				continue
			}
			inner, ok := s.incOfCount(x.Body)
			if !ok {
				return nil, false
			}
			lo, hi, okR := s.loopRangeUnitStep(x)
			if !okR {
				return nil, false
			}
			sum, ok := symbolic.SumClosed(inner, x.Index, lo, hi)
			if !ok {
				return nil, false
			}
			total = symbolic.Add(total, sum)
		case *ir.IfStmt:
			if s.blockTouches(x.Then) || (x.Else != nil && s.blockTouches(x.Else)) {
				return nil, false
			}
		}
	}
	return total, true
}

// substituteMultBlock rewrites uses of the candidate as
// entry * factor**count given the count of prior executions at block
// entry.
func (s *solver) substituteMultBlock(b *ir.Block, count *symbolic.Expr, factor ir.Expr, entry ir.Expr) bool {
	makeRepl := func(cnt *symbolic.Expr) ir.Expr {
		return ir.Mul(entry.Clone(), ir.Bin(ir.OpPow, factor.Clone(), symbolic.ToIR(cnt)))
	}
	subst := func(e ir.Expr, cnt *symbolic.Expr) ir.Expr {
		if !ir.References(e, s.cand.name) {
			return e
		}
		return ir.SubstVar(e, s.cand.name, makeRepl(cnt))
	}
	for _, st := range b.Stmts {
		switch x := st.(type) {
		case *ir.AssignStmt:
			if s.isDef(x) {
				count = symbolic.Add(count, symbolic.Int(1))
				continue
			}
			x.RHS = subst(x.RHS, count)
			if a, ok := x.LHS.(*ir.ArrayRef); ok {
				for i, sb := range a.Subs {
					a.Subs[i] = subst(sb, count)
				}
			}
		case *ir.DoStmt:
			x.Init = subst(x.Init, count)
			x.Limit = subst(x.Limit, count)
			if s.blockTouches(x.Body) {
				inner, _ := s.incOfCount(x.Body)
				lo, hi, _ := s.loopRangeUnitStep(x)
				prefix, ok := symbolic.SumPrefix(inner, x.Index, lo, symbolic.Var(x.Index))
				if !ok {
					return false
				}
				if !s.substituteMultBlock(x.Body, symbolic.Add(count, prefix), factor, entry) {
					return false
				}
				totalInner, _ := symbolic.SumClosed(inner, x.Index, lo, hi)
				count = symbolic.Add(count, totalInner)
			} else if !s.substituteMultBlock(x.Body, count, factor, entry) {
				return false
			}
		case *ir.IfStmt:
			x.Cond = subst(x.Cond, count)
			if !s.substituteMultBlock(x.Then, count, factor, entry) {
				return false
			}
			if x.Else != nil && !s.substituteMultBlock(x.Else, count, factor, entry) {
				return false
			}
		}
	}
	return true
}
