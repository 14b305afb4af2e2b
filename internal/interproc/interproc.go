// Package interproc implements interprocedural constant propagation —
// the second enabling transformation the paper names for Figure 3, and
// a piece of the "comprehensive interprocedural analysis framework"
// Section 3 says was under construction as the alternative to full
// inline expansion.
//
// The implementation specializes subroutines on constant actuals: when
// every call site passes the same integer literal for a scalar formal,
// the formal is turned into a PARAMETER constant inside the callee and
// dropped from the argument lists. Analyses of the callee then see the
// constant exactly as they would after inlining, without the code
// growth.
package interproc

import (
	"slices"
	"sort"
	"strconv"

	"polaris/internal/ir"
)

// Report describes the propagation.
type Report struct {
	// Propagated maps "CALLEE.FORMAL" to the constant value.
	Propagated map[string]int64
	// UnitSigs maps each unit the plan edits to a deterministic
	// signature of its edit script: the in-application-order
	// specialization events on the unit itself (formal position dropped,
	// name, value) and, per callee it calls, the in-order argument
	// positions deleted at its call sites. A unit's post-propagation IR
	// is a pure function of its parse and this edit script, so (raw
	// source, parse context, signature) identifies the post-pass unit
	// without rendering it — which is how incremental compilation keys
	// specialized units and rewritten callers by raw source. Units absent
	// from the map leave the pass exactly as they entered it.
	UnitSigs map[string]string
}

// drop removes one formal of a callee, and the argument in the same
// position at every one of its call sites.
type drop struct {
	// pos is the position at application time: the formal's declared
	// position less the drops of the same callee that come before it.
	pos  int
	name string
	val  int64
}

// Plan is the read-only half of the propagation: every specialization
// decision, made over a program it does not write, and the per-unit
// edit script Apply replays on a unit the caller may write. The split
// is the inliner's (Section 3.1 of the paper): a site-independent
// decision made once, site-specific writes on a private copy.
type Plan struct {
	Report
	// drops holds each specialized callee's drops in application order.
	drops map[string][]drop
	// calleesOf lists, per unit, the specialized callees it calls,
	// sorted; a unit absent from it has no call site to rewrite.
	calleesOf map[string][]string
}

// Analyze decides the specialization of prog without writing it: a
// scalar integer formal is dropped when every call site passes it the
// same integer literal and the callee never writes it.
//
// Each decision reads only the callee's declaration and body and the
// literal at the formal's declared position in every site, and a drop
// removes nothing but literals, so no decision can enable or disable
// another: one sweep reaches the fixed point the in-place propagation
// iterated to, and a formal's position at application time is its
// declared position less the drops ahead of it — at the call sites too,
// which lose the same positions in the same order.
func Analyze(prog *ir.Program) *Plan {
	p := &Plan{Report: Report{Propagated: map[string]int64{}}, drops: map[string][]drop{}}
	sitesByName := callSiteIndex(prog)
	for _, callee := range prog.Units {
		if callee.Kind != ir.UnitSubroutine {
			continue
		}
		sites := sitesByName[callee.Name]
		if len(sites) == 0 {
			continue
		}
		var ds []drop
		for fi, formal := range callee.Formals {
			fsym := callee.Symbols.Lookup(formal)
			if fsym == nil || fsym.IsArray() || fsym.Type != ir.TypeInteger {
				continue
			}
			val, uniform := uniformConstArg(sites, fi)
			if !uniform || modifies(callee, formal) {
				continue
			}
			ds = append(ds, drop{pos: fi - len(ds), name: formal, val: val})
			p.Propagated[callee.Name+"."+formal] = val
		}
		if len(ds) > 0 {
			p.drops[callee.Name] = ds
		}
	}
	// A callee's sites are indexed unit by unit, so one owner's sites
	// are adjacent and a change of owner is a new (owner, callee) pair.
	p.calleesOf = map[string][]string{}
	for name := range p.drops {
		owner := ""
		for _, s := range sitesByName[name] {
			if s.owner != owner {
				owner = s.owner
				p.calleesOf[owner] = append(p.calleesOf[owner], name)
			}
		}
	}
	for _, names := range p.calleesOf {
		sort.Strings(names)
	}
	p.UnitSigs = p.unitSigs(prog)
	return p
}

// Apply replays u's edit script on it: the unit's own formals become
// PARAMETER constants, and its calls to specialized callees lose the
// matching arguments. u is a unit of the analyzed program or a clone of
// one, written by nobody else, and is applied to once.
func (p *Plan) Apply(u *ir.ProgramUnit) {
	for _, d := range p.drops[u.Name] {
		u.Formals = slices.Delete(u.Formals, d.pos, d.pos+1)
		sym := u.Symbols.Lookup(d.name)
		sym.Formal = false
		sym.Param = ir.Int(d.val)
	}
	if len(p.calleesOf[u.Name]) == 0 {
		return
	}
	ir.WalkStmts(u.Body, func(s ir.Stmt) bool {
		if c, ok := s.(*ir.CallStmt); ok {
			for _, d := range p.drops[c.Name] {
				c.Args = slices.Delete(c.Args, d.pos, d.pos+1)
			}
		}
		return true
	})
}

// unitSigs renders the per-unit signatures: a unit's own drops
// ("self[pos:NAME=val,...]") then, per specialized callee it calls, that
// callee's argument drops ("call-NAME[pos=val,...]"), ';'-separated.
func (p *Plan) unitSigs(prog *ir.Program) map[string]string {
	out := map[string]string{}
	var sig []byte
	part := func(head, name string, ds []drop, named bool) {
		if len(sig) > 0 {
			sig = append(sig, ';')
		}
		sig = append(append(append(sig, head...), name...), '[')
		for i, d := range ds {
			if i > 0 {
				sig = append(sig, ',')
			}
			sig = strconv.AppendInt(sig, int64(d.pos), 10)
			if named {
				sig = append(append(sig, ':'), d.name...)
			}
			sig = strconv.AppendInt(append(sig, '='), d.val, 10)
		}
		sig = append(sig, ']')
	}
	for _, u := range prog.Units {
		sig = sig[:0]
		if ds := p.drops[u.Name]; len(ds) > 0 {
			part("self", "", ds, true)
		}
		for _, name := range p.calleesOf[u.Name] {
			part("call-", name, p.drops[name], false)
		}
		if len(sig) > 0 {
			out[u.Name] = string(sig)
		}
	}
	return out
}

// callSite is one CALL statement together with the unit containing it
// (the unit whose IR changes when the site's argument list does).
type callSite struct {
	call  *ir.CallStmt
	owner string
}

// callSiteIndex collects every CALL in the program, grouped by callee
// name, in one walk: the old per-callee scan re-walked all units for
// each of the U subroutines, O(U^2) unit walks on a megaprogram's
// hundreds of units.
func callSiteIndex(prog *ir.Program) map[string][]callSite {
	out := map[string][]callSite{}
	for _, u := range prog.Units {
		ir.WalkStmts(u.Body, func(s ir.Stmt) bool {
			if c, ok := s.(*ir.CallStmt); ok {
				out[c.Name] = append(out[c.Name], callSite{call: c, owner: u.Name})
			}
			return true
		})
	}
	return out
}

// uniformConstArg reports whether argument position fi is the same
// integer literal at every site.
func uniformConstArg(sites []callSite, fi int) (int64, bool) {
	var val int64
	for i, s := range sites {
		if fi >= len(s.call.Args) {
			return 0, false
		}
		c, ok := s.call.Args[fi].(*ir.ConstInt)
		if !ok {
			return 0, false
		}
		if i == 0 {
			val = c.Val
		} else if c.Val != val {
			return 0, false
		}
	}
	return val, true
}

// modifies reports whether the callee may write the formal: assigned,
// used as a DO index, or passed onward by reference.
func modifies(u *ir.ProgramUnit, name string) bool {
	found := false
	ir.WalkStmts(u.Body, func(s ir.Stmt) bool {
		switch x := s.(type) {
		case *ir.AssignStmt:
			if v, ok := x.LHS.(*ir.VarRef); ok && v.Name == name {
				found = true
			}
		case *ir.DoStmt:
			if x.Index == name {
				found = true
			}
		case *ir.CallStmt:
			for _, a := range x.Args {
				if v, ok := a.(*ir.VarRef); ok && v.Name == name {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
