package rng

import (
	"polaris/internal/ir"
	"polaris/internal/symbolic"
)

// EnvForStmt builds a proof environment for the target statement:
// enclosing loop indices (innermost first) with their ranges, followed
// by bounds decomposed from guard and trip-count facts.
func (a *Analyzer) EnvForStmt(target ir.Stmt) *symbolic.Env {
	env := symbolic.NewEnv()
	loops := ir.EnclosingLoops(a.unit.Body, target)
	for i := len(loops) - 1; i >= 0; i-- {
		d := loops[i]
		lo, hi, ok := a.LoopRange(d)
		if !ok {
			continue
		}
		env.Push(d.Index, symbolic.Bound{Lo: lo, Hi: hi})
	}
	for _, f := range a.Facts(target) {
		a.AddFactGE(env, f)
	}
	return env
}
