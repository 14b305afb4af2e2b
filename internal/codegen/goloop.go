package codegen

import (
	"polaris/internal/ir"
	"polaris/internal/reduction"
)

// redTarget is one reduction variable of a parallel loop, with the
// update statements that feed it. Workers log contributions instead of
// applying them; the replay after the barrier applies the logs in
// worker order — which is global serial iteration order — so the
// emitted fold is bit-identical to sequential execution.
type redTarget struct {
	name    string
	op      string // "+", "*", "MAX", "MIN"
	histo   bool   // accumulator is an array element (histogram)
	accInt  bool
	logVar  string
	stmts   []*redStmtInfo
	stmtMap map[*ir.AssignStmt]*redStmtInfo
}

// redStmtInfo is one matched update statement. sid identifies the
// statement form in the log: MAX(X,e) and MAX(e,X) resolve ties to
// different operands, so replay must know which form produced an event.
type redStmtInfo struct {
	sid     int
	accLeft bool // accumulator read evaluates before the contribution
	contrib ir.Expr
	cInt    bool
	target  *redTarget
}

type planMode int

const (
	planSerial planMode = iota
	planDoall
	planLRPD
)

// loopPlan is the result of checking a parallel-annotated loop against
// what the Go backend can lower exactly. A nil plan means serial
// fallback (always bit-exact), never a refusal of the whole program.
type loopPlan struct {
	mode     planMode
	privates []string // ordered: loop index first, then par.Private
	privArrs []string
	lastVals []string
	reds     []*redTarget
	tested   []string // LRPD: live tested arrays
}

// ---- reduction matching (mirrors internal/reduction.matchUpdate) ----

func maxMinOp(name string) string {
	switch name {
	case "MAX", "AMAX1", "MAX0":
		return "MAX"
	case "MIN", "AMIN1", "MIN0":
		return "MIN"
	}
	return ""
}

func sideMatch(lhs ir.Expr, l, r ir.Expr, target string) (contrib ir.Expr, accLeft, ok bool) {
	switch {
	case ir.Equal(l, lhs):
		contrib, accLeft = r, true
	case ir.Equal(r, lhs):
		contrib, accLeft = l, false
	default:
		return nil, false, false
	}
	if ir.References(contrib, target) {
		return nil, false, false
	}
	if ar, isArr := lhs.(*ir.ArrayRef); isArr {
		for _, sub := range ar.Subs {
			if ir.References(sub, target) {
				return nil, false, false
			}
		}
	}
	return contrib, accLeft, true
}

// matchRed reports whether s is an update of target with an
// associative operation, and with which statement form.
func matchRed(s *ir.AssignStmt, target string) (op string, accLeft bool, contrib ir.Expr, ok bool) {
	switch lhs := s.LHS.(type) {
	case *ir.VarRef:
		if lhs.Name != target {
			return "", false, nil, false
		}
	case *ir.ArrayRef:
		if lhs.Name != target {
			return "", false, nil, false
		}
	default:
		return "", false, nil, false
	}
	if tgt, _, addend, aok := reduction.MatchReductionStmt(s); aok && tgt == target {
		rhs := s.RHS.(*ir.Binary)
		return "+", ir.Equal(rhs.L, s.LHS), addend, true
	}
	switch rhs := s.RHS.(type) {
	case *ir.Binary:
		if rhs.Op == ir.OpMul {
			if contrib, accLeft, sok := sideMatch(s.LHS, rhs.L, rhs.R, target); sok {
				return "*", accLeft, contrib, true
			}
		}
	case *ir.Call:
		if mm := maxMinOp(rhs.Name); mm != "" && len(rhs.Args) == 2 {
			if contrib, accLeft, sok := sideMatch(s.LHS, rhs.Args[0], rhs.Args[1], target); sok {
				return mm, accLeft, contrib, true
			}
		}
	}
	return "", false, nil, false
}

// ---- feasibility planning ----

// planParallel checks whether the annotated loop can be lowered to an
// exact parallel form; on failure it returns nil and the reason, and
// the loop is emitted serially (which is always exact).
func (g *goEmitter) planParallel(c *uctx, d *ir.DoStmt, lrpd bool) (*loopPlan, string) {
	par := d.Par
	p := &loopPlan{mode: planDoall}
	if lrpd {
		p.mode = planLRPD
	}

	// Control flow and, for speculative loops, calls: a RETURN or STOP
	// escaping a worker has no exact parallel lowering; a call inside a
	// speculative body would access tested arrays without shadow marks.
	bad := ""
	ir.WalkStmts(d.Body, func(s ir.Stmt) bool {
		switch s.(type) {
		case *ir.ReturnStmt:
			bad = "RETURN in loop body"
		case *ir.StopStmt:
			bad = "STOP in loop body"
		case *ir.CallStmt:
			if lrpd {
				bad = "CALL in speculative body"
			}
		}
		if bad == "" && lrpd {
			for _, e := range ir.StmtExprs(s) {
				ir.WalkExpr(e, func(n ir.Expr) bool {
					if cl, isCall := n.(*ir.Call); isCall && !intrinsicCall(cl.Name, len(cl.Args)) {
						bad = "function call in speculative body"
						return false
					}
					if ar, isRef := n.(*ir.ArrayRef); isRef && lrpd {
						if sym := arraySym(c.u, ar.Name); sym != nil && sym.Formal {
							// A formal could alias a tested array's
							// storage, bypassing the per-worker copies.
							bad = "formal array referenced in speculative body"
							return false
						}
					}
					return true
				})
			}
		}
		return bad == ""
	})
	if bad != "" {
		return nil, bad
	}

	// Reductions.
	redNames := map[string]*redTarget{}
	for _, r := range par.Reductions {
		if redNames[r.Target] != nil {
			continue
		}
		if r.Target == d.Index {
			return nil, "reduction on the loop index"
		}
		rt := &redTarget{name: r.Target, op: r.Op, stmtMap: map[*ir.AssignStmt]*redStmtInfo{}}
		if as := arraySym(c.u, r.Target); as != nil {
			if _, bound := c.ar[r.Target]; !bound {
				return nil, "unbound reduction array"
			}
			rt.histo = true
			rt.accInt = as.Type == ir.TypeInteger
		} else {
			k := scalarKind(c.u, r.Target)
			if k == gB {
				return nil, "logical reduction target"
			}
			rt.accInt = k == gI
		}
		ir.WalkStmts(d.Body, func(s ir.Stmt) bool {
			as, isAssign := s.(*ir.AssignStmt)
			if !isAssign || bad != "" {
				return bad == ""
			}
			if op, accLeft, contrib, mok := matchRed(as, r.Target); mok {
				if op != r.Op {
					bad = "reduction operator mismatch"
					return false
				}
				_, isArrLHS := as.LHS.(*ir.ArrayRef)
				if isArrLHS != rt.histo {
					bad = "reduction shape mismatch"
					return false
				}
				si := &redStmtInfo{sid: len(rt.stmts), accLeft: accLeft, contrib: contrib, target: rt}
				rt.stmts = append(rt.stmts, si)
				rt.stmtMap[as] = si
			}
			return true
		})
		if bad != "" {
			return nil, bad
		}
		if len(rt.stmts) == 0 {
			return nil, "no matched reduction statement"
		}
		for _, si := range rt.stmts {
			ck := g.lowerAside(c, si.contrib)
			if ck == gB {
				return nil, "logical reduction contribution"
			}
			si.cInt = ck == gI
			if (rt.op == "MAX" || rt.op == "MIN") && si.cInt != rt.accInt {
				return nil, "mixed-kind MAX/MIN reduction"
			}
		}
		redNames[r.Target] = rt
		p.reds = append(p.reds, rt)
	}

	// Every reference to a reduction target must be inside a matched
	// update statement (the reduction pass guarantees this, but the
	// emitter re-checks: logged-not-applied updates are only exact when
	// nothing observes the accumulator mid-loop).
	for _, rt := range p.reds {
		clean := true
		ir.WalkStmts(d.Body, func(s ir.Stmt) bool {
			if as, isAssign := s.(*ir.AssignStmt); isAssign && rt.stmtMap[as] != nil {
				return true
			}
			if d2, isDo := s.(*ir.DoStmt); isDo && d2.Index == rt.name {
				clean = false
			}
			for _, e := range ir.StmtExprs(s) {
				if ir.References(e, rt.name) {
					clean = false
				}
			}
			return clean
		})
		if !clean {
			return nil, "reduction target referenced outside its updates"
		}
	}

	// Privatized scalars; the loop index is privatized implicitly.
	privSet := map[string]bool{}
	addPriv := func(n string) string {
		if privSet[n] {
			return ""
		}
		if arraySym(c.u, n) != nil {
			return "array name in scalar Private list"
		}
		if redNames[n] != nil {
			return "name both private and reduction target"
		}
		privSet[n] = true
		p.privates = append(p.privates, n)
		return ""
	}
	if why := addPriv(d.Index); why != "" {
		return nil, why
	}
	for _, n := range par.Private {
		if why := addPriv(n); why != "" {
			return nil, why
		}
	}

	// Privatized arrays (names without an array symbol are skipped, as
	// the interpreter's nil-array skip does).
	privArrSet := map[string]bool{}
	for _, n := range par.PrivateArrays {
		if privArrSet[n] || arraySym(c.u, n) == nil {
			continue
		}
		if redNames[n] != nil {
			return nil, "array both private and reduction target"
		}
		if _, bound := c.ar[n]; !bound {
			return nil, "unbound private array"
		}
		privArrSet[n] = true
		p.privArrs = append(p.privArrs, n)
	}

	// Every scalar assigned in the body (including inner loop indices)
	// must be private; reduction updates are logged, not stored.
	ir.WalkStmts(d.Body, func(s ir.Stmt) bool {
		switch x := s.(type) {
		case *ir.AssignStmt:
			if v, isVar := x.LHS.(*ir.VarRef); isVar {
				if _, matched := anyRedStmt(p.reds, x); !matched && !privSet[v.Name] {
					bad = "shared scalar " + v.Name + " assigned in parallel body"
				}
			}
		case *ir.DoStmt:
			if !privSet[x.Index] {
				bad = "shared inner loop index " + x.Index
			}
		}
		return bad == ""
	})
	if bad != "" {
		return nil, bad
	}

	// Last values copy out of the final iteration's private.
	lvSeen := map[string]bool{}
	for _, n := range par.LastValue {
		if lvSeen[n] {
			continue
		}
		if !privSet[n] {
			return nil, "last-value of a non-private scalar"
		}
		lvSeen[n] = true
		p.lastVals = append(p.lastVals, n)
	}

	if lrpd {
		testedSet := map[string]bool{}
		for _, n := range par.LRPD {
			sym := arraySym(c.u, n)
			if sym == nil || testedSet[n] {
				continue // interp skips non-array tested names
			}
			if sym.Formal {
				return nil, "speculative test on a formal array"
			}
			if redNames[n] != nil || privArrSet[n] {
				return nil, "tested array also private or reduction"
			}
			testedSet[n] = true
			p.tested = append(p.tested, n)
		}
		if len(p.tested) == 0 {
			return nil, "no live tested arrays"
		}
		// Writable arrays in a speculative body: tested (through the
		// per-worker copy), private, or histogram targets (logged).
		writable := map[string]bool{}
		for n := range testedSet {
			writable[n] = true
		}
		for n := range privArrSet {
			writable[n] = true
		}
		for _, rt := range p.reds {
			if rt.histo {
				writable[rt.name] = true
			}
		}
		ir.WalkStmts(d.Body, func(s ir.Stmt) bool {
			if as, isAssign := s.(*ir.AssignStmt); isAssign {
				if ar, isRef := as.LHS.(*ir.ArrayRef); isRef && !writable[ar.Name] {
					bad = "shared array " + ar.Name + " written in speculative body"
				}
			}
			return bad == ""
		})
		if bad != "" {
			return nil, bad
		}
	}
	return p, ""
}

func anyRedStmt(reds []*redTarget, s *ir.AssignStmt) (*redStmtInfo, bool) {
	for _, rt := range reds {
		if si := rt.stmtMap[s]; si != nil {
			return si, true
		}
	}
	return nil, false
}

// ---- DO lowering ----

func (g *goEmitter) doStmt(c *uctx, d *ir.DoStmt) {
	iv := g.nt("q")
	g.intDef(c, iv, d.Init)
	lv := g.nt("m")
	g.intDef(c, lv, d.Limit)
	sv := g.nt("s")
	g.intDef(c, sv, orOne(d.Step))
	g.open("if %s == 0 {", sv)
	g.w("panic(%q)", "interp: DO step is zero")
	g.close("}")
	nv := g.nt("n")
	g.w("%s := trips(%s, %s, %s)", nv, iv, lv, sv)

	var plan *loopPlan
	reason := ""
	if !c.inPar && d.Par != nil {
		if d.Par.Parallel {
			plan, reason = g.planParallel(c, d, false)
		} else if len(d.Par.LRPD) > 0 {
			plan, reason = g.planParallel(c, d, true)
		}
	}
	switch {
	case plan == nil:
		if reason != "" {
			g.w("// polaris: loop %s lowered serially: %s", d.ID, reason)
		}
		g.serialFor(c, d, iv, sv, nv)
	case plan.mode == planDoall:
		g.open("if parEnabled && %s && %s > 1 {", c.par, nv)
		g.emitDoall(c, d, plan, iv, sv, nv)
		g.ind--
		g.open("} else {")
		g.serialFor(c, d, iv, sv, nv)
		g.close("}")
	default: // planLRPD
		g.open("if parEnabled && %s && %s > 1 {", c.par, nv)
		g.emitLRPD(c, d, plan, iv, sv, nv)
		g.ind--
		g.open("} else {")
		g.serialFor(c, d, iv, sv, nv)
		g.close("}")
	}
	// The index's exit value: init + trips*step.
	g.storeIndexVal(c, d.Index, iv, nv, sv)
}

// lowerAside lowers e where nothing reads the text, for the refusals
// it raises and its kind.
func (g *goEmitter) lowerAside(c *uctx, e ir.Expr) gKind {
	g.b = &g.aside
	k := g.x(c, e)
	g.b = &g.out
	g.aside.Reset()
	return k
}

// storeIndexVal writes the DO index's value for trip k: init + k*step.
func (g *goEmitter) storeIndexVal(c *uctx, name, init, k, step string) {
	e := g.scalar(c, name)
	switch e.k {
	case gI:
		g.w("%s = %s + %s*%s", e.lv, init, k, step)
	case gF:
		g.w("%s = float64(%s + %s*%s)", e.lv, init, k, step)
	default:
		refuse("logical DO index %s", name)
	}
}

func (g *goEmitter) serialFor(c *uctx, d *ir.DoStmt, iv, sv, nv string) {
	kv := g.nt("k")
	g.open("for %s := int64(0); %s < %s; %s++ {", kv, kv, nv, kv)
	g.storeIndexVal(c, d.Index, iv, kv, sv)
	g.block(c, d.Body)
	g.close("}")
}

// workerCtx builds the emission context for a parallel worker body:
// private scalars and arrays become worker locals.
func (g *goEmitter) workerCtx(c *uctx, plan *loopPlan, wv string) *uctx {
	wc := c.inner()
	wc.wVar = wv
	wc.sc = make(map[string]scEntry, len(plan.privates))
	wc.ar = make(map[string]arEntry, len(plan.privArrs))
	wc.reds = plan.reds
	for _, n := range plan.privates {
		pn := n + "_p"
		shared, _ := c.scalarAt(n)
		g.w("var %s %s", pn, goType(shared.k))
		g.w("_ = %s", pn)
		wc.sc[n] = scEntry{lv: pn, addr: "&" + pn, k: shared.k}
	}
	for _, n := range plan.privArrs {
		pn := n + "_w"
		base := c.ar[n]
		g.w("%s := cloneShape(%s)", pn, base.ex)
		g.w("_ = %s", pn)
		wc.ar[n] = arEntry{ex: pn, isInt: base.isInt}
	}
	return wc
}

func (g *goEmitter) emitDoall(c *uctx, d *ir.DoStmt, plan *loopPlan, iv, sv, nv string) {
	pv := g.nt("p")
	g.w("%s := nprocs", pv)
	for _, rt := range plan.reds {
		rt.logVar = g.nt("r")
		g.w("%s := make([][]rev, %s)", rt.logVar, pv)
	}
	lastTemps := map[string]string{}
	for _, n := range plan.lastVals {
		t := g.nt("o")
		lastTemps[n] = t
		g.w("var %s %s", t, goType(c.sc[n].k))
	}
	wv, lov, hiv := g.nt("w"), g.nt("b"), g.nt("e")
	g.open("parfor(%s, %s, func(%s, %s, %s int64) {", nv, pv, wv, lov, hiv)
	wc := g.workerCtx(c, plan, wv)
	kv := g.nt("k")
	g.open("for %s := %s; %s < %s; %s++ {", kv, lov, kv, hiv, kv)
	g.storeIndexVal(wc, d.Index, iv, kv, sv)
	g.block(wc, d.Body)
	g.close("}")
	if len(plan.lastVals) > 0 {
		g.open("if %s == %s {", hiv, nv)
		for _, n := range plan.lastVals {
			g.w("%s = %s", lastTemps[n], wc.sc[n].lv)
		}
		g.close("}")
	}
	g.close("})")
	for _, rt := range plan.reds {
		g.replay(c, rt)
	}
	for _, n := range plan.lastVals {
		g.w("%s = %s", c.sc[n].lv, lastTemps[n])
	}
}

func (g *goEmitter) emitLRPD(c *uctx, d *ir.DoStmt, plan *loopPlan, iv, sv, nv string) {
	pv := g.nt("p")
	g.w("%s := nprocs", pv)
	copyVars := map[string]string{}
	shadowVars := map[string]string{}
	for _, n := range plan.tested {
		cv := g.nt("a")
		hv := g.nt("h")
		copyVars[n] = cv
		shadowVars[n] = hv
		g.w("%s := make([]arr, %s)", cv, pv)
		g.w("%s := make([]*shadow, %s)", hv, pv)
	}
	okv := g.nt("u")
	g.w("%s := make([]bool, %s)", okv, pv)
	for _, rt := range plan.reds {
		rt.logVar = g.nt("r")
		g.w("%s := make([][]rev, %s)", rt.logVar, pv)
	}
	lastTemps := map[string]string{}
	for _, n := range plan.lastVals {
		t := g.nt("o")
		lastTemps[n] = t
		g.w("var %s %s", t, goType(c.sc[n].k))
	}
	wv, lov, hiv := g.nt("w"), g.nt("b"), g.nt("e")
	g.open("parfor(%s, %s, func(%s, %s, %s int64) {", nv, pv, wv, lov, hiv)
	// Speculative execution can fault on values later iterations would
	// not have seen serially (a stale subscript, a zero divisor); any
	// panic fails the test and the loop re-executes serially, matching
	// the sequential interpreter, which never speculates.
	g.w("defer func() { _ = recover() }()")
	kv := g.nt("k")
	wc := g.workerCtx(c, plan, wv)
	wc.spec = map[string]*specInfo{}
	for _, n := range plan.tested {
		base := c.ar[n]
		cpv := n + "_c"
		shv := n + "_h"
		g.w("%s := cloneData(%s)", cpv, base.ex)
		g.w("%s := newShadow(total(%s))", shv, base.ex)
		g.w("%s[%s] = %s", copyVars[n], wv, cpv)
		g.w("%s[%s] = %s", shadowVars[n], wv, shv)
		wc.spec[n] = &specInfo{copyVar: cpv, shVar: shv, iter: "(" + kv + " + 1)"}
	}
	g.open("for %s := %s; %s < %s; %s++ {", kv, lov, kv, hiv, kv)
	g.storeIndexVal(wc, d.Index, iv, kv, sv)
	g.block(wc, d.Body)
	g.close("}")
	if len(plan.lastVals) > 0 {
		g.open("if %s == %s {", hiv, nv)
		for _, n := range plan.lastVals {
			g.w("%s = %s", lastTemps[n], wc.sc[n].lv)
		}
		g.close("}")
	}
	g.w("%s[%s] = true", okv, wv)
	g.close("})")

	passv := g.nt("t")
	g.w("%s := true", passv)
	first := shadowVars[plan.tested[0]]
	wv2 := g.nt("w")
	g.open("for %s := range %s {", wv2, first)
	g.open("if %s[%s] != nil && !%s[%s] {", first, wv2, okv, wv2)
	g.w("%s = false", passv)
	g.close("}")
	g.close("}")
	for _, n := range plan.tested {
		g.open("if !lrpdPass(%s) {", shadowVars[n])
		g.w("%s = false", passv)
		g.close("}")
	}
	g.open("if %s {", passv)
	for _, rt := range plan.reds {
		g.replay(c, rt)
	}
	for _, n := range plan.tested {
		g.w("mergeWritten(&%s, %s, %s)", c.ar[n].ex, copyVars[n], shadowVars[n])
	}
	for _, n := range plan.lastVals {
		g.w("%s = %s", c.sc[n].lv, lastTemps[n])
	}
	g.ind--
	g.open("} else {")
	g.serialFor(c.inner(), d, iv, sv, nv)
	g.close("}")
}

// ---- reduction logging and replay ----

// redLog lowers one matched reduction update inside a worker: evaluate
// everything the interpreter would evaluate, in its order (accumulator
// subscripts are still computed and bounds-checked), but append the
// contribution to the per-worker log instead of touching the shared
// accumulator.
func (g *goEmitter) redLog(c *uctx, s *ir.AssignStmt, si *redStmtInfo) {
	rt := si.target
	var lhsRef *ir.ArrayRef
	if rt.histo {
		lhsRef = s.LHS.(*ir.ArrayRef)
	}
	accIx := func(lhs string) {
		a := g.array(c, rt.name)
		g.indent()
		g.put(lhs)
		g.ixCall(c, a.ex, rt.name, lhsRef.Subs)
		g.put("\n")
	}
	if rt.histo && si.accLeft {
		accIx("_ = ")
	}
	cv := g.nt("c")
	g.indent()
	g.put(cv, " := ")
	ck := g.x(c, si.contrib)
	g.put("\n")
	if rt.histo && !si.accLeft {
		accIx("_ = ")
	}
	xv := ""
	if rt.histo {
		xv = g.nt("x")
		accIx(xv + " := ")
	}
	g.indent()
	g.put(rt.logVar, "[", c.wVar, "] = append(", rt.logVar, "[", c.wVar, "], rev{sid: ")
	g.int(int64(si.sid))
	if rt.histo {
		g.put(", ix: ", xv)
	}
	if ck == gI {
		g.put(", isI: true, i: ", cv)
	} else {
		g.put(", f: ", cv)
	}
	g.put("})\n")
}

// replay applies one target's logs in worker order — global serial
// iteration order — reproducing the interpreter's sequential fold,
// including combine's tie-keeps-left rule for each MAX/MIN form and
// integer extremum comparison through float64.
func (g *goEmitter) replay(c *uctx, rt *redTarget) {
	ev := g.nt("y")
	eb := g.nt("z")
	g.open("for _, %s := range %s {", ev, rt.logVar)
	g.open("for _, %s := range %s {", eb, ev)
	if len(rt.stmts) == 1 {
		g.applyRed(c, rt, rt.stmts[0], eb)
	} else {
		g.open("switch %s.sid {", eb)
		for _, si := range rt.stmts {
			g.w("case %d:", si.sid)
			g.ind++
			g.applyRed(c, rt, si, eb)
			g.ind--
		}
		g.close("}")
	}
	g.close("}")
	g.close("}")
}

func (g *goEmitter) applyRed(c *uctx, rt *redTarget, si *redStmtInfo, eb string) {
	var acc string
	if rt.histo {
		a := g.array(c, rt.name)
		acc = a.ex + "." + elemField(a.isInt) + "[" + eb + ".ix]"
	} else {
		acc = g.scalar(c, rt.name).lv
	}
	contrib := eb + ".f"
	if si.cInt {
		contrib = eb + ".i"
	}
	switch rt.op {
	case "+", "*":
		op := rt.op
		switch {
		case rt.accInt && si.cInt:
			g.w("%s %s= %s", acc, op, contrib)
		case rt.accInt && !si.cInt:
			g.w("%s = int64(float64(%s) %s %s)", acc, acc, op, contrib)
		case !rt.accInt && si.cInt:
			g.w("%s %s= float64(%s)", acc, op, contrib)
		default:
			g.w("%s %s= %s", acc, op, contrib)
		}
	case "MAX", "MIN":
		// Same-kind contributions are enforced at planning time.
		accCmp, evCmp := acc, contrib
		if rt.accInt {
			accCmp = "float64(" + acc + ")"
			evCmp = "float64(" + contrib + ")"
		}
		cmp := ">="
		if rt.op == "MIN" {
			cmp = "<="
		}
		if si.accLeft {
			// acc = combine(acc, e): the accumulator wins ties.
			g.open("if !(%s %s %s) {", accCmp, cmp, evCmp)
		} else {
			// acc = combine(e, acc): the contribution wins ties.
			g.open("if %s %s %s {", evCmp, cmp, accCmp)
		}
		g.w("%s = %s", acc, contrib)
		g.close("}")
	default:
		refuse("unsupported reduction operator %s", rt.op)
	}
}
