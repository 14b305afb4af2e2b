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
	"cmp"
	"slices"
	"strconv"
	"strings"

	"polaris/internal/ir"
)

// Report describes the propagation.
type Report struct {
	// Propagated maps "CALLEE.FORMAL" to the constant value.
	Propagated map[string]int64
	// UnitSigs holds, by unit position, a deterministic signature of
	// the edit script the plan holds for each unit: the
	// in-application-order specialization events on the unit itself
	// (formal position dropped, name, value) and, per callee it calls,
	// the in-order argument positions deleted at its call sites. A
	// unit's post-propagation IR is a pure function of its parse and
	// this edit script, so (raw source, parse context, signature)
	// identifies the post-pass unit without rendering it — which is how
	// incremental compilation keys specialized units and rewritten
	// callers by raw source. A unit whose signature is "" leaves the
	// pass exactly as it entered it.
	UnitSigs []string
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

// call is one (caller, specialized callee) pair, by unit position.
type call struct{ owner, callee int32 }

// Plan is the read-only half of the propagation: every specialization
// decision, made over a program it does not write, and the per-unit
// edit script Apply replays on a unit the caller may write. The split
// is the inliner's (Section 3.1 of the paper): a site-independent
// decision made once, site-specific writes on a private copy. Every
// table is held by unit position.
type Plan struct {
	Report
	// names are the units' names.
	names []string
	// drops holds each specialized callee's drops in application order.
	drops [][]drop
	// calls pairs each unit with the specialized callees it calls,
	// sorted by caller, then callee name; a unit with no pair has no
	// call site to rewrite.
	calls []call
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
	n := len(prog.Units)
	p := &Plan{Report: Report{Propagated: map[string]int64{}}, names: make([]string, n), drops: make([][]drop, n)}
	sites := callSites(prog)
	var ds []drop
	pairs := 0 // at most one per site of a specialized callee
	for ci, callee := range prog.Units {
		p.names[ci] = callee.Name
		if callee.Kind != ir.UnitSubroutine {
			continue
		}
		cs := sitesOf(sites, callee.Name)
		if len(cs) == 0 {
			continue
		}
		ds = ds[:0]
		for fi, formal := range callee.Formals {
			fsym := callee.Symbols.Lookup(formal)
			if fsym == nil || fsym.IsArray() || fsym.Type != ir.TypeInteger {
				continue
			}
			val, uniform := uniformConstArg(cs, fi)
			if !uniform || modifies(callee, formal) {
				continue
			}
			ds = append(ds, drop{pos: fi - len(ds), name: formal, val: val})
			p.Propagated[callee.Name+"."+formal] = val
		}
		if len(ds) > 0 {
			p.drops[ci] = slices.Clone(ds)
			pairs += len(cs)
		}
	}
	// A callee's sites are in unit order, so one owner's sites are
	// adjacent and a change of owner is a new (owner, callee) pair.
	p.calls = make([]call, 0, pairs)
	for ci, ds := range p.drops {
		if len(ds) == 0 {
			continue
		}
		owner := -1
		for _, s := range sitesOf(sites, p.names[ci]) {
			if s.owner != owner {
				owner = s.owner
				p.calls = append(p.calls, call{int32(owner), int32(ci)})
			}
		}
	}
	slices.SortFunc(p.calls, func(a, b call) int {
		if a.owner != b.owner {
			return cmp.Compare(a.owner, b.owner)
		}
		return strings.Compare(p.names[a.callee], p.names[b.callee])
	})
	p.UnitSigs = p.unitSigs()
	return p
}

// callsOf returns the pairs whose caller is unit i.
func (p *Plan) callsOf(i int) []call {
	return run(p.calls, int32(i), func(c call, i int32) int { return cmp.Compare(c.owner, i) })
}

// Apply replays the edit script of unit i on u: the unit's own formals
// become PARAMETER constants, and its calls to specialized callees lose
// the matching arguments. u is unit i of the analyzed program or a
// clone of it, written by nobody else, and is applied to once.
func (p *Plan) Apply(i int, u *ir.ProgramUnit) {
	for _, d := range p.drops[i] {
		u.Formals = slices.Delete(u.Formals, d.pos, d.pos+1)
		u.Symbols.BindFormal(d.name, ir.Int(d.val))
	}
	calls := p.callsOf(i)
	if len(calls) == 0 {
		return
	}
	// The unit's pairs are in callee-name order: a megaprogram's MAIN
	// calls a thousand specialized callees, each from its own site.
	ir.WalkStmts(u.Body, func(s ir.Stmt) bool {
		if c, ok := s.(*ir.CallStmt); ok {
			k, found := slices.BinarySearchFunc(calls, c.Name, func(cl call, name string) int {
				return strings.Compare(p.names[cl.callee], name)
			})
			if found {
				for _, d := range p.drops[calls[k].callee] {
					c.Args = slices.Delete(c.Args, d.pos, d.pos+1)
				}
			}
		}
		return true
	})
}

// unitSigs renders the per-unit signatures: a unit's own drops
// ("self[pos:NAME=val,...]") then, per specialized callee it calls, that
// callee's argument drops ("call-NAME[pos=val,...]"), ';'-separated.
func (p *Plan) unitSigs() []string {
	out := make([]string, len(p.drops))
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
	for i := range out {
		sig = sig[:0]
		if ds := p.drops[i]; len(ds) > 0 {
			part("self", "", ds, true)
		}
		for _, cl := range p.callsOf(i) {
			part("call-", p.names[cl.callee], p.drops[cl.callee], false)
		}
		if len(sig) > 0 {
			out[i] = string(sig)
		}
	}
	return out
}

// callSite is one CALL statement together with the position of the
// unit containing it (the unit whose IR changes when the site's
// argument list does).
type callSite struct {
	call  *ir.CallStmt
	owner int
}

// callSites collects every CALL in the program into one list sorted by
// callee name, each callee's sites in unit order: one walk counts them,
// so the list is made at its final size, and a second fills it. The
// old per-callee scan re-walked all units for each of the U
// subroutines, O(U^2) unit walks on a megaprogram's hundreds of units.
func callSites(prog *ir.Program) []callSite {
	n := 0
	for _, u := range prog.Units {
		ir.WalkStmts(u.Body, func(s ir.Stmt) bool {
			if _, ok := s.(*ir.CallStmt); ok {
				n++
			}
			return true
		})
	}
	out := make([]callSite, 0, n)
	for i, u := range prog.Units {
		ir.WalkStmts(u.Body, func(s ir.Stmt) bool {
			if c, ok := s.(*ir.CallStmt); ok {
				out = append(out, callSite{call: c, owner: i})
			}
			return true
		})
	}
	slices.SortStableFunc(out, func(a, b callSite) int { return strings.Compare(a.call.Name, b.call.Name) })
	return out
}

// sitesOf returns the run of sites, sorted by callee name, that call
// name.
func sitesOf(sites []callSite, name string) []callSite {
	return run(sites, name, func(s callSite, name string) int { return strings.Compare(s.call.Name, name) })
}

// run returns the elements of s, sorted by cmp, that cmp finds equal
// to k.
func run[T, K any](s []T, k K, cmp func(T, K) int) []T {
	lo, _ := slices.BinarySearchFunc(s, k, cmp)
	hi := lo
	for hi < len(s) && cmp(s[hi], k) == 0 {
		hi++
	}
	return s[lo:hi]
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
