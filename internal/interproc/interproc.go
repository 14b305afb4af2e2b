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
	"fmt"
	"sort"
	"strings"

	"polaris/internal/ir"
)

// Report describes the propagation.
type Report struct {
	// Propagated maps "CALLEE.FORMAL" to the constant value.
	Propagated map[string]int64
	// UnitSigs maps each unit this propagation mutated to a
	// deterministic signature of the exact edits applied to it: the
	// in-application-order specialization events on the unit itself
	// (formal position dropped, name, value) and, per callee it calls,
	// the in-order argument positions deleted at its call sites. A
	// unit's post-propagation IR is a pure function of its parse and
	// this edit script, so (raw source, parse context, signature)
	// identifies the post-pass unit without rendering it — which is how
	// incremental compilation keys specialized units and rewritten
	// callers by raw source. Units absent from the map left the pass
	// exactly as they entered it.
	UnitSigs map[string]string
}

// Propagate runs the specialization over the whole program, iterating
// so constants flowing through one level of calls reach deeper ones.
func Propagate(prog *ir.Program) *Report {
	rep := &Report{Propagated: map[string]int64{}}
	// The call-site index is built once: specialization re-slices the
	// Args of existing CallStmts in place and never adds or removes a
	// CALL, so the site pointers stay valid across rounds.
	sitesByName := callSiteIndex(prog)
	ev := &editLog{selfEvents: map[string][]string{}, argDrops: map[string][]string{}}
	for pass := 0; pass < 4; pass++ {
		if !propagateOnce(prog, sitesByName, ev, rep) {
			break
		}
	}
	rep.UnitSigs = ev.unitSigs(prog, sitesByName)
	return rep
}

// editLog accumulates the specialization events of one propagation in
// application order, keyed by callee.
type editLog struct {
	// selfEvents records each callee's own edits ("fi:NAME=val" —
	// formal at position fi dropped, its symbol made PARAMETER val).
	selfEvents map[string][]string
	// argDrops records, per callee, the argument positions deleted at
	// every one of its call sites ("fi=val"). Order matters: positions
	// are application-time indices, shifting as earlier drops land.
	argDrops map[string][]string
}

// unitSigs folds the event log into per-unit signatures: a unit's own
// specialization events plus, for each callee it calls (sorted), that
// callee's site-rewrite events.
func (ev *editLog) unitSigs(prog *ir.Program, sitesByName map[string][]callSite) map[string]string {
	calleesOf := map[string][]string{}
	seen := map[string]map[string]bool{}
	for name, sites := range sitesByName {
		if len(ev.argDrops[name]) == 0 {
			continue
		}
		for _, s := range sites {
			if seen[s.owner] == nil {
				seen[s.owner] = map[string]bool{}
			}
			if !seen[s.owner][name] {
				seen[s.owner][name] = true
				calleesOf[s.owner] = append(calleesOf[s.owner], name)
			}
		}
	}
	out := map[string]string{}
	var sig strings.Builder
	part := func(head, name string, evs []string) {
		if sig.Len() > 0 {
			sig.WriteByte(';')
		}
		sig.WriteString(head)
		sig.WriteString(name)
		sig.WriteByte('[')
		for i, e := range evs {
			if i > 0 {
				sig.WriteByte(',')
			}
			sig.WriteString(e)
		}
		sig.WriteByte(']')
	}
	for _, u := range prog.Units {
		sig.Reset()
		if evs := ev.selfEvents[u.Name]; len(evs) > 0 {
			part("self", "", evs)
		}
		names := calleesOf[u.Name]
		sort.Strings(names)
		for _, name := range names {
			part("call-", name, ev.argDrops[name])
		}
		if sig.Len() > 0 {
			out[u.Name] = sig.String()
		}
	}
	return out
}

func propagateOnce(prog *ir.Program, sitesByName map[string][]callSite, ev *editLog, rep *Report) bool {
	changed := false
	for _, callee := range prog.Units {
		if callee.Kind != ir.UnitSubroutine || len(callee.Formals) == 0 {
			continue
		}
		sites := sitesByName[callee.Name]
		if len(sites) == 0 {
			continue
		}
		// Find formals receiving one identical integer literal at
		// every site, not modified inside the callee.
		for fi := 0; fi < len(callee.Formals); fi++ {
			formal := callee.Formals[fi]
			fsym := callee.Symbols.Lookup(formal)
			if fsym == nil || fsym.IsArray() || fsym.Type != ir.TypeInteger {
				continue
			}
			val, uniform := uniformConstArg(sites, fi)
			if !uniform {
				continue
			}
			if modifies(callee, formal) {
				continue
			}
			// Specialize: drop the formal, make it a PARAMETER.
			callee.Formals = append(callee.Formals[:fi], callee.Formals[fi+1:]...)
			fsym.Formal = false
			fsym.Param = ir.Int(val)
			ev.selfEvents[callee.Name] = append(ev.selfEvents[callee.Name],
				fmt.Sprintf("%d:%s=%d", fi, formal, val))
			ev.argDrops[callee.Name] = append(ev.argDrops[callee.Name],
				fmt.Sprintf("%d=%d", fi, val))
			for _, site := range sites {
				site.call.Args = append(site.call.Args[:fi], site.call.Args[fi+1:]...)
			}
			rep.Propagated[callee.Name+"."+formal] = val
			changed = true
			fi--
		}
	}
	return changed
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
