// Package inline implements Polaris' inline expansion (Section 3.1 of
// the paper): subroutine calls in a top-level unit are repeatedly
// expanded so that the intraprocedural analyses see the whole program.
// Following the paper, the work is split into a site-independent part
// (a reusable template per callee) and site-specific transformations
// (formal-to-actual remapping, local renaming, and array linearization
// when formal and actual shapes do not conform).
package inline

import (
	"fmt"

	"polaris/internal/ir"
)

// Options bounds the expansion.
type Options struct {
	// MaxPasses bounds repeated expansion over nested calls.
	MaxPasses int
	// MaxStmts aborts when the expanded unit would exceed this many
	// statements (compile-time blowup guard the paper mentions).
	MaxStmts int
}

// DefaultOptions matches the prototype's limits.
func DefaultOptions() Options { return Options{MaxPasses: 8, MaxStmts: 50000} }

// Report describes what the inliner did.
type Report struct {
	Expanded int
	// Skipped maps call-site descriptions to the reason expansion was
	// not possible (those calls remain and block parallelization of
	// their enclosing loops).
	Skipped map[string]string
}

// ExpandAll expands subroutine calls in top until none remain (or the
// pass/size limits hit). Callees must be units of prog; they are read,
// never written. clone, when non-nil, stands in for callee.Clone() as
// the source of the private copy a callee's template is cut from — the
// driver hands out a copy it has specialized, so the unit itself need
// not be.
func ExpandAll(prog *ir.Program, top *ir.ProgramUnit, opt Options, clone func(callee *ir.ProgramUnit) *ir.ProgramUnit) *Report {
	rep := &Report{Skipped: map[string]string{}}
	tpl := newTemplates(clone)
	// Resolve callees through a one-pass name index: Program.Unit is a
	// linear scan, and a megaprogram has hundreds of units and call
	// sites — the repeated scans were quadratic in program size.
	units := make(map[string]*ir.ProgramUnit, len(prog.Units))
	for _, u := range prog.Units {
		units[u.Name] = u
	}
	for pass := 0; pass < opt.MaxPasses; pass++ {
		if !expandOnce(units, top, tpl, opt, rep) {
			break
		}
	}
	return rep
}

// expandOnce expands every currently-present eligible call; returns
// whether anything was expanded.
func expandOnce(units map[string]*ir.ProgramUnit, top *ir.ProgramUnit, tpl *templates, opt Options, rep *Report) bool {
	expanded := false
	// The size guard needs the running statement count; counting from
	// scratch per call site is quadratic on programs with many calls,
	// so count once and maintain the total incrementally.
	count := ir.CountStmts(top.Body)
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		for i := 0; i < len(b.Stmts); i++ {
			switch x := b.Stmts[i].(type) {
			case *ir.CallStmt:
				callee := units[x.Name]
				if callee == nil || callee.Kind != ir.UnitSubroutine {
					continue
				}
				if count > opt.MaxStmts {
					rep.Skipped[x.Name] = "size limit reached"
					continue
				}
				stmts, err := tpl.instantiate(top, callee, x)
				if err != nil {
					rep.Skipped[x.Name] = err.Error()
					continue
				}
				b.Remove(i)
				b.Insert(i, stmts...)
				count += countStmtList(stmts) - 1
				i += len(stmts) - 1
				rep.Expanded++
				expanded = true
			case *ir.DoStmt:
				walk(x.Body)
			case *ir.IfStmt:
				walk(x.Then)
				if x.Else != nil {
					walk(x.Else)
				}
			}
		}
	}
	walk(top.Body)
	return expanded
}

// countStmtList counts statements including nested bodies.
func countStmtList(stmts []ir.Stmt) int {
	n := 0
	for _, s := range stmts {
		n++
		switch x := s.(type) {
		case *ir.DoStmt:
			n += ir.CountStmts(x.Body)
		case *ir.IfStmt:
			n += ir.CountStmts(x.Then)
			if x.Else != nil {
				n += ir.CountStmts(x.Else)
			}
		}
	}
	return n
}

// templates caches per-callee validated bodies (the site-independent
// half of the paper's scheme).
type templates struct {
	clone func(callee *ir.ProgramUnit) *ir.ProgramUnit
	cache map[string]*ir.ProgramUnit
	// failed caches validation rejections: a callee the splice cannot
	// express is re-encountered at every call site on every expansion
	// pass, and re-walking its body each time is quadratic on programs
	// with many refused callees.
	failed map[string]error
}

func newTemplates(clone func(callee *ir.ProgramUnit) *ir.ProgramUnit) *templates {
	if clone == nil {
		clone = (*ir.ProgramUnit).Clone
	}
	return &templates{clone: clone, cache: map[string]*ir.ProgramUnit{}, failed: map[string]error{}}
}

// template returns a validated master copy of the callee.
func (t *templates) template(callee *ir.ProgramUnit) (*ir.ProgramUnit, error) {
	if u, ok := t.cache[callee.Name]; ok {
		return u, nil
	}
	if err, ok := t.failed[callee.Name]; ok {
		return nil, err
	}
	if err := validateCallee(callee); err != nil {
		t.failed[callee.Name] = err
		return nil, err
	}
	u := t.clone(callee)
	// Drop a trailing RETURN (falls through to the end after splicing).
	if n := len(u.Body.Stmts); n > 0 {
		if _, isRet := u.Body.Stmts[n-1].(*ir.ReturnStmt); isRet {
			u.Body.Remove(n - 1)
		}
	}
	t.cache[callee.Name] = u
	return u, nil
}

// validateCallee rejects constructs the splice cannot express.
func validateCallee(u *ir.ProgramUnit) error {
	// COMMON members alias storage shared with the caller; the local
	// renaming below would sever that aliasing (the callee's writes
	// would land in fresh caller locals instead of the shared block),
	// so COMMON callees are analyzed intraprocedurally instead.
	for _, sym := range u.Symbols.All() {
		if sym.Common != "" {
			return fmt.Errorf("%s uses COMMON /%s/", u.Name, sym.Common)
		}
	}
	var err error
	ir.WalkStmts(u.Body, func(s ir.Stmt) bool {
		switch s.(type) {
		case *ir.ReturnStmt:
			// Only a trailing top-level RETURN is expressible.
			if s != u.Body.Stmts[len(u.Body.Stmts)-1] {
				err = fmt.Errorf("RETURN not at end of %s", u.Name)
			}
		case *ir.StopStmt:
			// STOP is fine: it stops the program wherever it is.
		}
		return err == nil
	})
	// Recursion guard.
	ir.WalkStmts(u.Body, func(s ir.Stmt) bool {
		if c, ok := s.(*ir.CallStmt); ok && c.Name == u.Name {
			err = fmt.Errorf("recursive call in %s", u.Name)
		}
		return err == nil
	})
	return err
}

// instantiate produces the statements replacing one call site
// (site-specific transformations on a fresh copy of the template).
func (t *templates) instantiate(top *ir.ProgramUnit, callee *ir.ProgramUnit, call *ir.CallStmt) ([]ir.Stmt, error) {
	master, err := t.template(callee)
	if err != nil {
		return nil, err
	}
	if len(call.Args) != len(master.Formals) {
		return nil, fmt.Errorf("call to %s: %d args, %d formals", callee.Name, len(call.Args), len(master.Formals))
	}
	work := master.Clone()
	var pre []ir.Stmt

	// Map formals to actuals.
	for fi, formal := range work.Formals {
		actual := call.Args[fi]
		fsym := work.Symbols.Lookup(formal)
		if fsym == nil {
			return nil, fmt.Errorf("formal %s undeclared in %s", formal, callee.Name)
		}
		if fsym.IsArray() {
			if err := mapArrayFormal(top, work, formal, fsym, actual); err != nil {
				return nil, err
			}
			continue
		}
		if err := mapScalarFormal(top, work, formal, fsym, actual, &pre); err != nil {
			return nil, err
		}
	}

	// Rename remaining locals into the caller's namespace and hoist
	// their declarations.
	for _, sym := range work.Symbols.All() {
		name := sym.Name
		if sym.Formal {
			continue
		}
		var param ir.Expr
		if sym.Param != nil {
			param = sym.Param.Clone()
		}
		fresh := top.Symbols.FreshName(callee.Name+"_"+name, ir.Symbol{Type: sym.Type, Dims: cloneDims(sym.Dims), Param: param})
		renameEverywhere(work.Body, name, fresh)
	}
	out := append(pre, work.Body.Stmts...)
	return out, nil
}

func cloneDims(dims []ir.Dim) []ir.Dim {
	if dims == nil {
		return nil
	}
	out := make([]ir.Dim, len(dims))
	for i, d := range dims {
		out[i] = d.Clone()
	}
	return out
}

// mapScalarFormal substitutes a scalar formal with its actual: direct
// renaming for variable actuals, a copy-in temporary for expressions
// (legal because assigning to an expression argument is nonconforming
// Fortran, so values never flow back).
func mapScalarFormal(top, work *ir.ProgramUnit, formal string, fsym *ir.Symbol, actual ir.Expr, pre *[]ir.Stmt) error {
	if v, ok := actual.(*ir.VarRef); ok {
		if asym := top.Symbols.Lookup(v.Name); asym != nil && !asym.IsArray() {
			renameEverywhere(work.Body, formal, v.Name)
			return nil
		}
	}
	// Expression actual (includes array elements): copy-in temp.
	tmp := top.Symbols.FreshName("INL_"+formal, ir.Symbol{Type: fsym.Type})
	*pre = append(*pre, &ir.AssignStmt{LHS: ir.Var(tmp), RHS: actual.Clone()})
	renameEverywhere(work.Body, formal, tmp)
	return nil
}

// mapArrayFormal maps an array formal onto the actual array. Conforming
// shapes rename directly; a multi-dimensional formal passed a
// one-dimensional actual is linearized (the paper's fallback whose
// accuracy loss the range test recovers); an array-element actual
// aliases a shifted window of a one-dimensional actual.
func mapArrayFormal(top, work *ir.ProgramUnit, formal string, fsym *ir.Symbol, actual ir.Expr) error {
	switch a := actual.(type) {
	case *ir.VarRef:
		asym := top.Symbols.Lookup(a.Name)
		if asym == nil || !asym.IsArray() {
			return fmt.Errorf("actual %s for array formal %s is not an array", a.Name, formal)
		}
		if sameShape(fsym.Dims, asym.Dims) {
			renameEverywhere(work.Body, formal, a.Name)
			return nil
		}
		if len(asym.Dims) == 1 {
			return linearizeInto(work, formal, fsym, a.Name, asym.Dims[0].LoOr1())
		}
		if len(fsym.Dims) == len(asym.Dims) {
			// Same rank, different extents: only safe when extents are
			// structurally equal per dimension (checked above) — or
			// when we can't prove it, refuse.
			return fmt.Errorf("array formal %s does not conform to actual %s", formal, a.Name)
		}
		return fmt.Errorf("cannot map rank-%d formal %s onto rank-%d actual %s", len(fsym.Dims), formal, len(asym.Dims), a.Name)
	case *ir.ArrayRef:
		asym := top.Symbols.Lookup(a.Name)
		if asym == nil || len(asym.Dims) != 1 || len(a.Subs) != 1 {
			return fmt.Errorf("unsupported array-element actual for formal %s", formal)
		}
		// Formal aliases a window of ACT starting at element a.Subs[0].
		return linearizeInto(work, formal, fsym, a.Name, a.Subs[0])
	}
	return fmt.Errorf("unsupported actual expression for array formal %s", formal)
}

// sameShape compares dimension lists structurally.
func sameShape(a, b []ir.Dim) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i].Hi == nil) != (b[i].Hi == nil) {
			return false
		}
		if a[i].Hi != nil && !ir.Equal(a[i].Hi, b[i].Hi) {
			return false
		}
		if !ir.Equal(a[i].LoOr1(), b[i].LoOr1()) {
			return false
		}
	}
	return true
}

// linearizeInto rewrites every reference F(i1,...,in) in the body as
// ACT(base + (i1-lo1) + e1*(i2-lo2) + e1*e2*(i3-lo3) + ...) using the
// formal's column-major layout, where base is the actual-array index of
// the formal's first element.
func linearizeInto(work *ir.ProgramUnit, formal string, fsym *ir.Symbol, actualName string, base ir.Expr) error {
	for _, d := range fsym.Dims[:len(fsym.Dims)-1] {
		if d.Hi == nil {
			return fmt.Errorf("assumed-size inner dimension on formal %s", formal)
		}
	}
	ir.MapStmtExprs(work.Body, func(e ir.Expr) ir.Expr {
		ar, ok := e.(*ir.ArrayRef)
		if !ok || ar.Name != formal {
			return e
		}
		// Column-major linear offset.
		var off ir.Expr = ir.Sub(ar.Subs[0].Clone(), fsym.Dims[0].LoOr1().Clone())
		stride := ir.Expr(nil)
		for k := 1; k < len(ar.Subs); k++ {
			dPrev := fsym.Dims[k-1]
			extent := ir.Expr(ir.Add(ir.Sub(dPrev.Hi.Clone(), dPrev.LoOr1().Clone()), ir.Int(1)))
			if stride == nil {
				stride = extent
			} else {
				stride = ir.Mul(stride.Clone(), extent)
			}
			term := ir.Mul(stride.Clone(), ir.Sub(ar.Subs[k].Clone(), fsym.Dims[k].LoOr1().Clone()))
			off = ir.Add(off, term)
		}
		idx := ir.Add(base.Clone(), off)
		return ir.Index(actualName, idx)
	})
	return nil
}

// renameEverywhere rewrites scalar references, array base names, DO
// indices and call arguments from old to new.
func renameEverywhere(b *ir.Block, old, new string) {
	ir.MapStmtExprs(b, func(e ir.Expr) ir.Expr {
		switch x := e.(type) {
		case *ir.VarRef:
			if x.Name == old {
				return ir.Var(new)
			}
		case *ir.ArrayRef:
			if x.Name == old {
				return &ir.ArrayRef{Name: new, Subs: x.Subs}
			}
		case *ir.Call:
			if x.Name == old {
				return &ir.Call{Name: new, Args: x.Args}
			}
		}
		return e
	})
	ir.WalkStmts(b, func(s ir.Stmt) bool {
		if d, ok := s.(*ir.DoStmt); ok && d.Index == old {
			d.Index = new
		}
		return true
	})
}
