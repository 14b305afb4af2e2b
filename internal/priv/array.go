package priv

import (
	"fmt"
	"slices"

	"polaris/internal/deps"
	"polaris/internal/ir"
	"polaris/internal/symbolic"
)

// region is the symbolic extent of one array access, per dimension.
type region struct {
	dims []dimRange
	// stmt and chain locate the access for ordering checks.
	stmt  ir.Stmt
	chain []*ir.DoStmt // inner loops (inside the target) enclosing the access
	// conditional marks accesses under an IF inside the body.
	conditional bool
	subs        []ir.Expr
}

type dimRange struct {
	lo, hi *symbolic.Expr
	// dense marks write regions that cover every element of [lo,hi]
	// (unit-stride in exactly one chain variable, or a unit-step
	// monotonic scalar subscript).
	dense bool
	ok    bool
}

// arrays runs region-based privatization for every array written in the
// loop body, reading the accesses the loop's nest collected.
func (a *analyzer) arrays(res *Result) {
	for _, accs := range a.nest.Groups() {
		if !slices.ContainsFunc(accs, func(acc deps.Access) bool { return acc.Write }) {
			continue
		}
		var writes, reads []*region
		for _, acc := range accs {
			// The chain is the loops inside the analyzed one.
			r := &region{stmt: acc.Stmt, chain: acc.Loops[1:], conditional: acc.Cond, subs: acc.Subs}
			if acc.Write {
				writes = append(writes, r)
			} else {
				reads = append(reads, r)
			}
		}
		name := accs[0].Array
		if reason, ok := a.arrayPrivatizable(name, writes, reads); ok {
			res.PrivateArrays = append(res.PrivateArrays, name)
		} else {
			res.Blocked[name] = reason
		}
	}
}

// arrayPrivatizable decides privatizability of one array.
func (a *analyzer) arrayPrivatizable(name string, writes, reads []*region) (string, bool) {
	if a.liveAfterLoop(name) {
		return "array is live after the loop (copy-out not provable)", false
	}
	for _, w := range writes {
		if w.subs == nil {
			return "whole array passed to CALL in loop body", false
		}
	}
	// Compute regions for covering writes: unconditional dense writes,
	// plus the compress idiom (conditional write through a unit-step
	// monotonic scalar, Figure 5).
	var covers []*region
	for _, w := range writes {
		if dr, ok := a.compressRegion(w); ok {
			w.dims = []dimRange{dr}
			covers = append(covers, w)
			continue
		}
		if w.conditional {
			continue
		}
		a.computeRegion(w, true)
		usable := true
		for _, d := range w.dims {
			if !d.ok || !d.dense {
				usable = false
			}
		}
		if usable {
			covers = append(covers, w)
		}
	}
	// Every read must be covered by an earlier covering write.
	for _, r := range reads {
		a.computeRegion(r, false)
		covered := false
		for _, w := range covers {
			if a.precedes(w, r) && a.contains(w, r) {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Sprintf("read of %s not covered by a same-iteration definition", name), false
		}
	}
	return "", true
}

// computeRegion fills in the per-dimension symbolic ranges of an
// access. Write regions additionally establish density.
func (a *analyzer) computeRegion(r *region, isWrite bool) {
	if r.dims != nil {
		return
	}
	r.dims = make([]dimRange, len(r.subs))
	env := a.regionEnv(r)
	chainVars := map[string]bool{}
	for _, d := range r.chain {
		chainVars[d.Index] = true
	}
	usedVars := map[string]bool{}
	for i, sub := range r.subs {
		r.dims[i] = a.dimRangeOf(r, sub, env, chainVars, usedVars, isWrite)
	}
}

// dimRangeOf computes the range of one subscript over the access's
// chain, resolving loop-variant scalars with GSA and monotonic-variable
// analysis where possible.
func (a *analyzer) dimRangeOf(r *region, sub ir.Expr, env *symbolic.Env, chainVars, usedVars map[string]bool, isWrite bool) dimRange {
	var conv symbolic.Conv
	if isWrite {
		conv = a.convAt(r.stmt, sub)
	} else {
		conv = a.convAtRead(r.stmt, sub)
	}
	if !conv.OK {
		return dimRange{}
	}
	e := conv.E
	// Resolve loop-variant free scalars: monotonic bound (the paper's
	// P in BDNA) or fail.
	for v := range e.Vars() {
		if chainVars[v] || !a.nest.Assigned(v) {
			continue
		}
		if isWrite {
			// Loop-variant scalar subscripts never qualify as generic
			// covering writes (the compress idiom handles the dense
			// case separately).
			return dimRange{}
		}
		mb, ok := a.monotonicBound(v, r.stmt)
		if !ok {
			return dimRange{}
		}
		env.Push(v, mb)
		chainVars[v] = true // treat as a ranged variable for elimination
		defer delete(chainVars, v)
	}
	// Opaque atoms (index arrays): for reads, try the value-range
	// analysis of statically assigned symbolic arrays.
	if e.HasOpaque() {
		if isWrite {
			return dimRange{}
		}
		vr, ok := a.indexedReadRange(r, e, env)
		if !ok {
			return dimRange{}
		}
		return vr
	}
	// Eliminate chain variables innermost-first.
	elim := a.elimOrder(r, chainVars)
	min, max := e, e
	for _, v := range elim {
		if !min.ContainsVar(v) && !max.ContainsVar(v) {
			continue
		}
		var ok bool
		if max.ContainsVar(v) {
			max, ok = env.MaxOver(max, v)
			if !ok {
				return dimRange{}
			}
		}
		if min.ContainsVar(v) {
			min, ok = env.MinOver(min, v)
			if !ok {
				return dimRange{}
			}
		}
	}
	dense := false
	if isWrite {
		dense = a.isDense(e, elim, usedVars)
	}
	return dimRange{lo: min, hi: max, dense: dense, ok: true}
}

// isDense checks unit-stride coverage: the subscript depends on at most
// one elimination variable, with coefficient +-1 and degree one, and
// that variable is not reused by another dimension.
func (a *analyzer) isDense(e *symbolic.Expr, elim []string, usedVars map[string]bool) bool {
	var dep []string
	for _, v := range elim {
		if e.ContainsVar(v) {
			dep = append(dep, v)
		}
	}
	if len(dep) == 0 {
		return true // constant in the chain: single element, trivially dense
	}
	if len(dep) != 1 {
		return false
	}
	v := dep[0]
	if usedVars[v] {
		return false
	}
	coeffs, ok := e.CoeffsIn(v)
	if !ok || len(coeffs) != 2 {
		return false
	}
	if c, isC := coeffs[1].ConstInt64(); !isC || (c != 1 && c != -1) {
		return false
	}
	usedVars[v] = true
	return true
}

// elimOrder lists the access's ranged variables innermost-first.
func (a *analyzer) elimOrder(r *region, chainVars map[string]bool) []string {
	var out []string
	for i := len(r.chain) - 1; i >= 0; i-- {
		if r.chain[i] == nil {
			continue
		}
		out = append(out, r.chain[i].Index)
	}
	// Monotonic scalars pushed into chainVars but not in chain:
	for v := range chainVars {
		found := false
		for _, o := range out {
			if o == v {
				found = true
			}
		}
		if !found {
			out = append(out, v)
		}
	}
	return out
}

// regionEnv builds the proof environment at the access: chain loop
// bounds innermost-first, then enclosing context facts.
func (a *analyzer) regionEnv(r *region) *symbolic.Env {
	env := symbolic.NewEnv()
	for i := len(r.chain) - 1; i >= 0; i-- {
		d := r.chain[i]
		if d == nil {
			continue
		}
		lo, hi, ok := a.loopRangeResolved(d)
		if !ok {
			continue
		}
		env.Push(d.Index, symbolic.Bound{Lo: lo, Hi: hi})
	}
	for _, f := range a.ranges.Facts(r.stmt) {
		a.ranges.AddFactGE(env, f)
	}
	return env
}

// loopRangeResolved converts loop bounds resolving pre-loop scalar
// values through GSA (so DO J = 1, MP sees MP = M*P — Figure 4). Every
// region under d asks, and the answer depends on d and the analyzed
// loop alone, so it is kept for the rest of the Analyze call.
func (a *analyzer) loopRangeResolved(d *ir.DoStmt) (lo, hi *symbolic.Expr, ok bool) {
	r, hit := a.loopRanges[d]
	if !hit {
		r.lo, r.hi, r.ok = a.resolveLoopRange(d)
		if a.loopRanges == nil {
			a.loopRanges = map[*ir.DoStmt]resolvedRange{}
		}
		a.loopRanges[d] = r
	}
	return r.lo, r.hi, r.ok
}

func (a *analyzer) resolveLoopRange(d *ir.DoStmt) (lo, hi *symbolic.Expr, ok bool) {
	step := a.ranges.Conv(d.StepOr1())
	if !step.OK {
		return nil, nil, false
	}
	sign, isC := step.E.ConstSign()
	if !isC || sign == 0 {
		return nil, nil, false
	}
	init := a.convAt(d, d.Init)
	limit := a.convAt(d, d.Limit)
	if !init.OK || !limit.OK {
		return nil, nil, false
	}
	if sign > 0 {
		return init.E, limit.E, true
	}
	return limit.E, init.E, true
}

// convAt converts an expression resolving names through propagated
// constants and then GSA values at the statement.
func (a *analyzer) convAt(at ir.Stmt, e ir.Expr) symbolic.Conv {
	lv := a.ranges.Leaves()
	return symbolic.FromIR(e, lv, func(name string) *symbolic.Expr {
		if c := a.ranges.Consts()[name]; c != nil {
			return c
		}
		if !a.nest.Assigned(name) {
			// Loop-invariant: resolve a pre-loop definition if it is a
			// closed expression (MP = M*P), else keep the symbol.
			v := a.gsa.ValueBefore(a.loop, name, 6)
			if !v.HasOpaque() && !symbolic.Equal(v, lv.Var(name)) {
				return v
			}
		}
		return nil
	})
}

// convAtRead additionally resolves loop-variant scalars through their
// GSA value at the statement itself, catching chains like M = IND(L)
// (Figure 5). Values that resolve only to control-flow gates stay free
// so the monotonic-bound analysis can take over.
func (a *analyzer) convAtRead(at ir.Stmt, e ir.Expr) symbolic.Conv {
	lv := a.ranges.Leaves()
	return symbolic.FromIR(e, lv, func(name string) *symbolic.Expr {
		if c := a.ranges.Consts()[name]; c != nil {
			return c
		}
		if a.nest.Assigned(name) {
			v := a.gsa.ValueBefore(at, name, 4)
			if !symbolic.Equal(v, lv.Var(name)) && !hasGate(v) {
				return v
			}
			return nil
		}
		v := a.gsa.ValueBefore(a.loop, name, 6)
		if !v.HasOpaque() && !symbolic.Equal(v, lv.Var(name)) {
			return v
		}
		return nil
	})
}

// hasGate reports whether the value contains a GSA gating atom
// (zero-argument non-call opaque).
func hasGate(e *symbolic.Expr) bool {
	found := false
	e.EachOpaqueAtom(func(_ string, atom symbolic.Atom) bool {
		found = !atom.Call && len(atom.Args) == 0
		for _, arg := range atom.Args {
			found = found || hasGate(arg)
		}
		return !found
	})
	return found
}

// precedes orders two accesses in single-iteration execution: the
// write's top-level position must be before the read's, or — within the
// same innermost loop — the write statement must come first with a
// structurally identical subscript (the same element, written then
// read).
func (a *analyzer) precedes(w, r *region) bool {
	wPos, rPos := a.topIndex(w.stmt), a.topIndex(r.stmt)
	if wPos < 0 || rPos < 0 {
		return false
	}
	if wPos < rPos {
		return true
	}
	if wPos > rPos {
		return false
	}
	// Same top-level construct: require same chain, write first, and
	// identical subscripts (sound: element written this iteration
	// before being read).
	if len(w.chain) != len(r.chain) {
		return false
	}
	for i := range w.chain {
		if w.chain[i] != r.chain[i] {
			return false
		}
	}
	if len(w.subs) != len(r.subs) {
		return false
	}
	for i := range w.subs {
		if !ir.Equal(w.subs[i], r.subs[i]) {
			return false
		}
	}
	// A statement's reads, on its right-hand side and in its subscripts,
	// all run before its write.
	return a.stmtBefore(w.stmt, r.stmt)
}

// stmtBefore reports source order within the loop body.
func (a *analyzer) stmtBefore(x, y ir.Stmt) bool {
	if x == y {
		return false
	}
	seenX := false
	before := false
	ir.WalkStmts(a.loop.Body, func(s ir.Stmt) bool {
		if s == x {
			seenX = true
		}
		if s == y && seenX {
			before = true
		}
		return true
	})
	return before
}

// topIndex returns the index of the top-level statement of the loop
// body containing s.
func (a *analyzer) topIndex(s ir.Stmt) int {
	for i, top := range a.loop.Body.Stmts {
		if top == s {
			return i
		}
		contains := false
		switch x := top.(type) {
		case *ir.DoStmt:
			contains = ir.ContainsStmt(x.Body, s)
		case *ir.IfStmt:
			contains = ir.ContainsStmt(x.Then, s) || (x.Else != nil && ir.ContainsStmt(x.Else, s))
		}
		if contains {
			return i
		}
	}
	return -1
}

// contains proves region containment per dimension: w.lo <= r.lo and
// r.hi <= w.hi, under the merged environments.
func (a *analyzer) contains(w, r *region) bool {
	if len(w.dims) != len(r.dims) {
		return false
	}
	env := a.regionEnv(r)
	for _, f := range a.ranges.Facts(w.stmt) {
		a.ranges.AddFactGE(env, f)
	}
	// Loop-variant scalars in region bounds (the paper's P) get their
	// monotonic bounds as facts.
	a.addMonotonicFacts(env, w, r)
	for i := range w.dims {
		wd, rd := w.dims[i], r.dims[i]
		if !wd.ok || !rd.ok {
			return false
		}
		if !env.ProveGE(symbolic.Sub(rd.lo, wd.lo)) {
			return false
		}
		if !env.ProveGE(symbolic.Sub(wd.hi, rd.hi)) {
			return false
		}
	}
	return true
}
