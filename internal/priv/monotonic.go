package priv

import (
	"polaris/internal/ir"
	"polaris/internal/symbolic"
)

// monotonicBound identifies the paper's monotonic-variable pattern for
// a scalar v used at atStmt: an initialization v = e0 at the top level
// of the loop body, followed by a single top-level DO in which every
// other definition of v is an unconditional-or-conditional v = v + 1.
// The value of v anywhere at or after that DO then lies in
// [e0, e0 + n*T] where n is the number of increment statements and T
// the trip count.
func (a *analyzer) monotonicBound(v string, atStmt ir.Stmt) (symbolic.Bound, bool) {
	init, incLoop, nInc, ok := a.monotonicPattern(v)
	if !ok {
		return symbolic.Bound{}, false
	}
	// The use must come at or after the incrementing DO.
	usePos := a.topIndex(atStmt)
	loopPos := a.loop.Body.IndexOf(incLoop)
	if usePos < loopPos {
		return symbolic.Bound{}, false
	}
	lo, hi, okR := a.loopRangeResolved(incLoop)
	if !okR {
		return symbolic.Bound{}, false
	}
	e0 := a.convAt(a.loop, init.RHS)
	if !e0.OK || e0.E.HasOpaque() {
		return symbolic.Bound{}, false
	}
	trip := symbolic.Add(symbolic.Sub(hi, lo), symbolic.Int(1))
	upper := symbolic.Add(e0.E, symbolic.Mul(symbolic.Int(int64(nInc)), trip))
	return symbolic.Bound{Lo: e0.E, Hi: upper}, true
}

// monotonicPattern locates the init assignment, the incrementing DO and
// the number of increment statements for scalar v. All definitions of v
// in the loop body must be the init plus v = v + 1 updates inside one
// top-level DO (the updates may be conditional).
func (a *analyzer) monotonicPattern(v string) (init *ir.AssignStmt, incLoop *ir.DoStmt, nInc int, ok bool) {
	oneInc := func(s *ir.AssignStmt) bool {
		b, isB := s.RHS.(*ir.Binary)
		if !isB || b.Op != ir.OpAdd {
			return false
		}
		l, lok := b.L.(*ir.VarRef)
		r, rok := b.R.(*ir.ConstInt)
		return lok && rok && l.Name == v && r.Val == 1
	}
	for i, top := range a.loop.Body.Stmts {
		if as, isA := top.(*ir.AssignStmt); isA {
			if lv, isV := as.LHS.(*ir.VarRef); isV && lv.Name == v {
				if init != nil {
					return nil, nil, 0, false // second init
				}
				if ir.References(as.RHS, v) {
					return nil, nil, 0, false
				}
				init = as
				continue
			}
		}
		if d, isD := top.(*ir.DoStmt); isD && init != nil && incLoop == nil {
			// Count increments; reject any other def of v inside.
			bad := false
			n := 0
			ir.WalkStmts(d.Body, func(s ir.Stmt) bool {
				switch x := s.(type) {
				case *ir.AssignStmt:
					if lv, isV := x.LHS.(*ir.VarRef); isV && lv.Name == v {
						if oneInc(x) {
							n++
						} else {
							bad = true
						}
					}
				case *ir.DoStmt:
					if x.Index == v {
						bad = true
					}
					// Increments nested in deeper DOs would multiply
					// the bound; keep the simple pattern.
					if ir.ReferencesVar(x.Body, v) {
						inner := false
						ir.WalkStmts(x.Body, func(s2 ir.Stmt) bool {
							if as2, isA2 := s2.(*ir.AssignStmt); isA2 {
								if lv2, ok2 := as2.LHS.(*ir.VarRef); ok2 && lv2.Name == v {
									inner = true
								}
							}
							return true
						})
						if inner {
							bad = true
						}
					}
				case *ir.CallStmt:
					for _, arg := range x.Args {
						if vr, isV := arg.(*ir.VarRef); isV && vr.Name == v {
							bad = true
						}
					}
				}
				return !bad
			})
			if bad {
				return nil, nil, 0, false
			}
			if n > 0 {
				incLoop = d
				nInc = n
			}
			continue
		}
		// Any other def of v outside the pattern disqualifies.
		defFound := false
		ir.WalkStmts(ir.NewBlock(top), func(s ir.Stmt) bool {
			if as, isA := s.(*ir.AssignStmt); isA && s != init {
				if lv, isV := as.LHS.(*ir.VarRef); isV && lv.Name == v {
					defFound = true
				}
			}
			return !defFound
		})
		if defFound && (incLoop == nil || i != a.loop.Body.IndexOf(incLoop)) {
			return nil, nil, 0, false
		}
	}
	if init == nil || incLoop == nil {
		return nil, nil, 0, false
	}
	return init, incLoop, nInc, true
}

// compressRegion recognizes the compress idiom of the paper's Figure 5:
//
//	P = e0
//	DO K ...
//	  IF (...) THEN
//	    P = P + 1
//	    ARR(P) = <value>
//	  END IF
//	END DO
//
// The write covers exactly the dense prefix [e0+1, P] where P is the
// scalar's final value (stable after the loop, since no later
// definitions exist by the monotonic pattern).
func (a *analyzer) compressRegion(w *region) (dimRange, bool) {
	if len(w.subs) != 1 {
		return dimRange{}, false
	}
	p, isVar := w.subs[0].(*ir.VarRef)
	if !isVar || !a.nest.Assigned(p.Name) {
		return dimRange{}, false
	}
	init, _, nInc, ok := a.monotonicPattern(p.Name)
	if !ok || nInc != 1 {
		return dimRange{}, false
	}
	// The increment must immediately precede the write in its block.
	if !a.incImmediatelyBefore(w.stmt, p.Name) {
		return dimRange{}, false
	}
	e0 := a.convAt(a.loop, init.RHS)
	if !e0.OK || e0.E.HasOpaque() {
		return dimRange{}, false
	}
	lo := symbolic.Add(e0.E, symbolic.Int(1))
	hi := symbolic.Var(p.Name) // final value of the monotonic scalar
	return dimRange{lo: lo, hi: hi, dense: true, ok: true}, true
}

// incImmediatelyBefore checks that "v = v + 1" is the statement
// directly before target in its containing block.
func (a *analyzer) incImmediatelyBefore(target ir.Stmt, v string) bool {
	found := false
	var scan func(b *ir.Block) bool
	scan = func(b *ir.Block) bool {
		for i, s := range b.Stmts {
			if s == target {
				if i == 0 {
					return true
				}
				prev, isA := b.Stmts[i-1].(*ir.AssignStmt)
				if !isA {
					return true
				}
				if lv, isV := prev.LHS.(*ir.VarRef); isV && lv.Name == v {
					if bx, isB := prev.RHS.(*ir.Binary); isB && bx.Op == ir.OpAdd {
						if l, lok := bx.L.(*ir.VarRef); lok && l.Name == v {
							if c, cok := bx.R.(*ir.ConstInt); cok && c.Val == 1 {
								found = true
							}
						}
					}
				}
				return true
			}
			switch x := s.(type) {
			case *ir.DoStmt:
				if scan(x.Body) {
					return true
				}
			case *ir.IfStmt:
				if scan(x.Then) {
					return true
				}
				if x.Else != nil && scan(x.Else) {
					return true
				}
			}
		}
		return false
	}
	scan(a.loop.Body)
	return found
}

// addMonotonicFacts pushes monotonic bounds for loop-variant scalars
// occurring free in either region's bounds, so containment proofs like
// P <= I-1 go through.
func (a *analyzer) addMonotonicFacts(env *symbolic.Env, w, r *region) {
	seen := map[string]bool{}
	addFrom := func(e *symbolic.Expr, at ir.Stmt) {
		if e == nil {
			return
		}
		for v := range e.Vars() {
			if seen[v] || !a.nest.Assigned(v) {
				continue
			}
			seen[v] = true
			if mb, ok := a.monotonicBound(v, at); ok {
				env.Push(v, mb)
			}
		}
	}
	for _, d := range w.dims {
		addFrom(d.lo, w.stmt)
		addFrom(d.hi, w.stmt)
	}
	for _, d := range r.dims {
		addFrom(d.lo, r.stmt)
		addFrom(d.hi, r.stmt)
	}
}

// indexedReadRange handles reads subscripted by an index array (the
// paper's A(IND(L))): if the last preceding write to the index array
// densely covers the read's index region, the read's element range is
// that write's value range — "statically assigned symbolic arrays".
func (a *analyzer) indexedReadRange(r *region, e *symbolic.Expr, env *symbolic.Env) (dimRange, bool) {
	atoms := e.OpaqueAtoms()
	if len(atoms) != 1 {
		return dimRange{}, false
	}
	var atom symbolic.Atom
	for _, at := range atoms {
		atom = at
	}
	if atom.Call || len(atom.Args) != 1 {
		return dimRange{}, false
	}
	// e must be exactly the atom (coefficient one, nothing else).
	if !symbolic.Equal(e, symbolic.OpaqueAtom(atom)) {
		return dimRange{}, false
	}
	// Index region of the read: range of the atom argument.
	arg := atom.Args[0]
	if arg.HasOpaque() {
		return dimRange{}, false
	}
	argMin, argMax := arg, arg
	for i := len(r.chain) - 1; i >= 0; i-- {
		v := r.chain[i].Index
		if !argMin.ContainsVar(v) && !argMax.ContainsVar(v) {
			continue
		}
		var ok bool
		argMax, ok = env.MaxOver(argMax, v)
		if !ok {
			return dimRange{}, false
		}
		argMin, ok = env.MinOver(argMin, v)
		if !ok {
			return dimRange{}, false
		}
	}
	// Find the last write to the index array before the read.
	wStar, vr, ok := a.lastIndexWrite(atom.Name, r)
	if !ok {
		return dimRange{}, false
	}
	// Its region must contain the read's index region.
	wEnv := a.regionEnv(r)
	for v := range argMin.Vars() {
		if a.nest.Assigned(v) {
			if mb, okM := a.monotonicBound(v, r.stmt); okM {
				wEnv.Push(v, mb)
			}
		}
	}
	if !wEnv.ProveGE(symbolic.Sub(argMin, wStar.lo)) || !wEnv.ProveGE(symbolic.Sub(wStar.hi, argMax)) {
		return dimRange{}, false
	}
	return vr, true
}

// lastIndexWrite finds the final write to array name preceding the read
// region r, computes its covering region (compress or dense), and the
// min/max of the values it stores.
func (a *analyzer) lastIndexWrite(name string, r *region) (dimRange, dimRange, bool) {
	var last *region
	var walk func(b *ir.Block, chain []*ir.DoStmt, cond bool) bool
	walk = func(b *ir.Block, chain []*ir.DoStmt, cond bool) bool {
		for _, s := range b.Stmts {
			if s == r.stmt {
				return true
			}
			switch x := s.(type) {
			case *ir.AssignStmt:
				if ar, ok := x.LHS.(*ir.ArrayRef); ok && ar.Name == name {
					last = &region{stmt: s, chain: chain, conditional: cond, subs: ar.Subs}
				}
			case *ir.DoStmt:
				if ir.ContainsStmt(x.Body, r.stmt) {
					return true // read nested here: stop before entering
				}
				if walk(x.Body, append(append([]*ir.DoStmt{}, chain...), x), cond) {
					return true
				}
			case *ir.IfStmt:
				if walk(x.Then, chain, true) {
					return true
				}
				if x.Else != nil && walk(x.Else, chain, true) {
					return true
				}
			}
		}
		return false
	}
	walk(a.loop.Body, nil, false)
	if last == nil {
		return dimRange{}, dimRange{}, false
	}
	// Covering region of the last write.
	var cover dimRange
	if cr, ok := a.compressRegion(last); ok {
		cover = cr
	} else if !last.conditional {
		a.computeRegion(last, true)
		if len(last.dims) != 1 || !last.dims[0].ok || !last.dims[0].dense {
			return dimRange{}, dimRange{}, false
		}
		cover = last.dims[0]
	} else {
		return dimRange{}, dimRange{}, false
	}
	// Value range of what it stores.
	as := last.stmt.(*ir.AssignStmt)
	vc := a.convAt(as, as.RHS)
	if !vc.OK || vc.E.HasOpaque() {
		return dimRange{}, dimRange{}, false
	}
	env := a.regionEnv(last)
	vMin, vMax := vc.E, vc.E
	for i := len(last.chain) - 1; i >= 0; i-- {
		v := last.chain[i].Index
		if !vMin.ContainsVar(v) && !vMax.ContainsVar(v) {
			continue
		}
		var ok bool
		vMax, ok = env.MaxOver(vMax, v)
		if !ok {
			return dimRange{}, dimRange{}, false
		}
		vMin, ok = env.MinOver(vMin, v)
		if !ok {
			return dimRange{}, dimRange{}, false
		}
	}
	// Loop-variant scalars in the value (none in the BDNA pattern) are
	// not supported.
	for v := range vMin.Vars() {
		if a.nest.Assigned(v) {
			return dimRange{}, dimRange{}, false
		}
	}
	for v := range vMax.Vars() {
		if a.nest.Assigned(v) {
			return dimRange{}, dimRange{}, false
		}
	}
	return cover, dimRange{lo: vMin, hi: vMax, ok: true}, true
}
