package rng_test

import (
	"sort"
	"testing"

	"polaris/internal/core"
	"polaris/internal/ir"
	"polaris/internal/parser"
	"polaris/internal/rng"
	"polaris/internal/suite"
	"polaris/internal/symbolic"
)

// refAddFactGE is the decomposition Analyzer.AddFactGE replaced, done
// from scratch against env on every call: the reference the memoized
// method is compared with.
func refAddFactGE(env *symbolic.Env, e *symbolic.Expr) {
	set := e.Vars()
	vars := make([]string, 0, len(set))
	for v := range set {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	better := func(cand, cur *symbolic.Expr, isLower bool) bool {
		if cur == nil {
			return true
		}
		if s, ok := symbolic.ConstCompare(cand, cur); ok {
			if isLower {
				return s > 0
			}
			return s < 0
		}
		return false
	}
	for _, v := range vars {
		coeffs, ok := e.CoeffsIn(v)
		if !ok || len(coeffs) != 2 {
			continue
		}
		c, isInt := coeffs[1].ConstInt64()
		if !isInt {
			continue
		}
		b, _ := env.Lookup(v)
		switch {
		case c == 1:
			lo := symbolic.Neg(coeffs[0])
			if better(lo, b.Lo, true) {
				b.Lo = lo
				env.Push(v, b)
			}
		case c == -1:
			hi := coeffs[0]
			if better(hi, b.Hi, false) {
				b.Hi = hi
				env.Push(v, b)
			}
		}
	}
}

// TestFactMemoMatchesFreshDecomposition folds every fact of every
// statement of the 16 suite programs, as parsed and as compiled, into
// an environment twice over: through the Analyzer's per-fact memo
// (first filling it, then replaying it) and through the reference. The
// environments must agree in elimination order and in every bound, and
// must answer a prover query per bound alike, which under -tags
// proverdiff also cross-checks each answer against the reference
// prover.
func TestFactMemoMatchesFreshDecomposition(t *testing.T) {
	facts := 0
	for _, p := range suite.All() {
		parsed, err := parser.ParseProgram(p.Source)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		res, err := core.Compile(parser.MustParse(p.Source), core.PolarisOptions())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, prog := range []*ir.Program{parsed, res.Program} {
			for _, u := range prog.Units {
				a := rng.New(u, symbolic.NewLeaves())
				ir.WalkStmts(u.Body, func(s ir.Stmt) bool {
					fs := a.Facts(s)
					facts += len(fs)
					// From nothing, and on top of the bounds the loop nest
					// already gives, so replacing an existing bound is
					// exercised as well as setting a missing one.
					for _, base := range []*symbolic.Env{symbolic.NewEnv(), a.EnvForStmt(s)} {
						want := base.Clone()
						for _, f := range fs {
							refAddFactGE(want, f)
						}
						for pass := 0; pass < 2; pass++ {
							got := base.Clone()
							for _, f := range fs {
								a.AddFactGE(got, f)
							}
							diffEnvs(t, p.Name+"/"+u.Name, got, want)
						}
					}
					return !t.Failed()
				})
			}
		}
	}
	if !t.Failed() && facts < 1000 {
		t.Errorf("only %d facts in the suite: the walk is not reaching them", facts)
	}
}

func diffEnvs(t *testing.T, where string, got, want *symbolic.Env) {
	t.Helper()
	gn, wn := got.Names(), want.Names()
	if len(gn) != len(wn) {
		t.Errorf("%s: names %v, want %v", where, gn, wn)
		return
	}
	same := func(g, w *symbolic.Expr) bool {
		if g == nil || w == nil {
			return g == w
		}
		return g.String() == w.String()
	}
	for i, name := range wn {
		if gn[i] != name {
			t.Errorf("%s: names %v, want %v", where, gn, wn)
			return
		}
		g, _ := got.Lookup(name)
		w, _ := want.Lookup(name)
		if !same(g.Lo, w.Lo) || !same(g.Hi, w.Hi) {
			t.Errorf("%s: %s in [%v, %v], want [%v, %v]", where, name, g.Lo, g.Hi, w.Lo, w.Hi)
		}
		if w.Lo != nil && w.Hi != nil {
			span := symbolic.Sub(w.Hi, w.Lo)
			if got.ProveGE(span) != want.ProveGE(span) {
				t.Errorf("%s: environments disagree on %v >= 0", where, span)
			}
		}
	}
}
