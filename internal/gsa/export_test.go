package gsa

import (
	"polaris/internal/ir"
	"polaris/internal/symbolic"
)

// Resolver returns a symbolic resolver that resolves scalar names to
// their GSA values before target. Names that resolve to themselves are
// left free (avoiding infinite recursion through FromIR).
func (g *Analyzer) Resolver(target ir.Stmt, depth int) symbolic.Resolver {
	return func(name string) *symbolic.Expr {
		v := g.ValueBefore(target, name, depth)
		if symbolic.Equal(v, g.lv.Var(name)) {
			return nil
		}
		return v
	}
}
