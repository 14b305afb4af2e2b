package deps_test

import (
	"testing"

	"polaris/internal/core"
	"polaris/internal/deps"
	"polaris/internal/fuzzgen"
	"polaris/internal/ir"
	"polaris/internal/parser"
	"polaris/internal/rng"
	"polaris/internal/suite"
	"polaris/internal/symbolic"
)

// refConvSubscript is the per-pair conversion the nest's slots replaced,
// from its own index map, assigned-scalar and written-array walks down,
// converting with a leaf table of its own: the reference a stored
// conversion is compared with.
func refConvSubscript(t *deps.Tester, root *ir.DoStmt, acc deps.Access, e ir.Expr) (conv symbolic.Conv, analyzable bool) {
	indices := map[string]bool{}
	for _, d := range ir.Loops(root.Body) {
		indices[d.Index] = true
	}
	indices[root.Index] = true
	for _, d := range acc.Loops {
		indices[d.Index] = true
	}
	resolver := func(name string) *symbolic.Expr {
		if indices[name] {
			return nil
		}
		if !refAssigned(root, name) {
			if c := t.Ranges.Consts()[name]; c != nil {
				return c
			}
			return nil
		}
		// Loop-variant scalar: resolve through GSA (catches simple
		// chains like M = IND(L)).
		v := t.GSA.ValueBefore(acc.Stmt, name, 4)
		if symbolic.Equal(v, symbolic.Var(name)) {
			return nil
		}
		return v
	}
	conv = symbolic.FromIR(e, symbolic.NewLeaves(), resolver)
	if !conv.OK {
		return conv, false
	}
	return conv, refExprAnalyzable(t, root, conv.E, indices)
}

// refAssigned reports whether the scalar name may be modified inside the
// nest: assigned, a DO index, or passed to a call.
func refAssigned(root *ir.DoStmt, name string) bool {
	found := false
	check := func(s ir.Stmt) bool {
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
	}
	check(ir.Stmt(root))
	ir.WalkStmts(root.Body, check)
	return found
}

// refWritten returns the arrays the nest may write: assigned elements
// and whole arrays passed to a call.
func refWritten(t *deps.Tester, root *ir.DoStmt) map[string]bool {
	w := map[string]bool{}
	ir.WalkStmts(root.Body, func(s ir.Stmt) bool {
		switch x := s.(type) {
		case *ir.AssignStmt:
			if ref, ok := x.LHS.(*ir.ArrayRef); ok {
				w[ref.Name] = true
			}
		case *ir.CallStmt:
			for _, arg := range x.Args {
				if v, ok := arg.(*ir.VarRef); ok {
					if sym := t.Unit.Symbols.Lookup(v.Name); sym != nil && sym.IsArray() {
						w[v.Name] = true
					}
				}
			}
		}
		return true
	})
	return w
}

func refExprAnalyzable(t *deps.Tester, root *ir.DoStmt, e *symbolic.Expr, indices map[string]bool) bool {
	for v := range e.Vars() {
		if indices[v] {
			continue
		}
		if refAssigned(root, v) {
			return false
		}
	}
	written := refWritten(t, root)
	ok := true
	e.EachOpaqueAtom(func(_ string, atom symbolic.Atom) bool {
		ok = refAtomAnalyzable(t, root, atom, written, indices)
		return ok
	})
	return ok
}

func refAtomAnalyzable(t *deps.Tester, root *ir.DoStmt, atom symbolic.Atom, written, indices map[string]bool) bool {
	if atom.Call {
		if atom.Name != "IDIV" && atom.Name != "IPOW" {
			return false // unknown function: not provably pure
		}
	} else if written[atom.Name] {
		return false // subscript array modified in the nest
	}
	// Gate atoms have no args slice entries but Args != nil with
	// len 0; they carry loop-variant values.
	if len(atom.Args) == 0 && !atom.Call {
		return false
	}
	for _, arg := range atom.Args {
		if !refExprAnalyzable(t, root, arg, indices) {
			return false
		}
	}
	return true
}

type source struct{ name, src string }

// suiteAndMega10k is the corpus the nest differentials walk: the 16
// suite programs and mega10k.
func suiteAndMega10k(t *testing.T) []source {
	var sources []source
	for _, p := range suite.All() {
		sources = append(sources, source{p.Name, p.Source})
	}
	for _, spec := range fuzzgen.MegaCorpus() {
		if spec.Name == "mega10k" {
			sources = append(sources, source{spec.Name, spec.Generate().Source})
		}
	}
	if len(sources) != 17 {
		t.Fatalf("%d sources, want the 16 suite programs and mega10k", len(sources))
	}
	return sources
}

// TestNestConvMatchesFresh takes every loop of the 16 suite programs
// and of mega10k, as parsed and as compiled, as the root of its own
// nest, runs the pair tests over it so the conversion slots fill in the
// order the analysis asks for them, and then requires of every
// subscript of every access that the slot holds what a conversion made
// from scratch for that one access would: under the nest's resolver
// with its analyzable verdict, and without a resolver, where the slot
// may be sharing the first conversion. The slots convert with one leaf
// table per program, as a compile does, and the references each with a
// new one, so a leaf the table shared wrongly shows in the rendering.
func TestNestConvMatchesFresh(t *testing.T) {
	if lv := symbolic.NewLeaves(); lv.Var("I") != lv.Var("I") || lv.Int(1) != lv.Int(1) {
		t.Fatal("one table returned two leaves for one variable or constant")
	}
	sources := suiteAndMega10k(t)
	// None of those keeps a power atom in a subscript. Here the resolver
	// folds 2**K to 8 while the resolver-free conversion, whose keys
	// addPowerFacts pushes, must keep IPOW(2,K) beside IPOW(3,L).
	sources = append(sources, source{"powers", `
      SUBROUTINE S(N, L, A)
      INTEGER N, K, L, I
      PARAMETER (K=3)
      REAL A(*)
      DO I = 1, N
        A(I*2**K + 3**L) = A(I*3**L + 2**K) + 1.0
      END DO
      END
`})
	same := func(got, want symbolic.Conv) bool {
		if got.OK != want.OK || got.IntDivApprox != want.IntDivApprox {
			return false
		}
		return !want.OK || got.E.String() == want.E.String()
	}
	var subs, resolved, unanalyzable, powers, shared int
	for _, s := range sources {
		parsed, err := parser.ParseProgram(s.src)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		res, err := core.Compile(parser.MustParse(s.src), core.PolarisOptions())
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for _, prog := range []*ir.Program{parsed, res.Program} {
			lv := symbolic.NewLeaves()
			for _, u := range prog.Units {
				tester := deps.NewTester(u, rng.New(u, lv))
				for _, root := range ir.Loops(u.Body) {
					n := tester.NewNest(root)
					tester.AnalyzeNest(n, deps.Config{})
					for _, acc := range n.Accesses() {
						for d, sub := range acc.Subs {
							conv, pow, analyzable := tester.Sub(n, acc, d)
							wantConv, wantAnalyzable := refConvSubscript(tester, root, acc, sub)
							wantPow := symbolic.FromIR(sub, symbolic.NewLeaves(), nil)
							if !same(conv, wantConv) || analyzable != wantAnalyzable {
								t.Errorf("%s/%s: %s(%s) under DO %s: stored %v (analyzable %v), fresh %v (%v)",
									s.name, u.Name, acc.Array, sub, root.Index, conv, analyzable, wantConv, wantAnalyzable)
							}
							if !same(pow, wantPow) {
								t.Errorf("%s/%s: %s(%s) under DO %s: stored resolver-free %v, fresh %v",
									s.name, u.Name, acc.Array, sub, root.Index, pow, wantPow)
							}
							subs++
							if v, ok := sub.(*ir.VarRef); ok && pow.E == lv.Var(v.Name) {
								shared++
							}
							if wantConv.OK && wantPow.OK && wantConv.E.String() != wantPow.E.String() {
								resolved++
							}
							if !wantAnalyzable {
								unanalyzable++
							}
							if wantPow.OK {
								wantPow.E.EachOpaqueAtom(func(_ string, atom symbolic.Atom) bool {
									if atom.Call && atom.Name == "IPOW" {
										powers++
									}
									return true
								})
							}
						}
					}
					if t.Failed() {
						return
					}
				}
			}
		}
	}
	// Every branch of the comparison has to have been taken, and the
	// slots have to be converting with the program's table.
	if subs < 10000 || resolved == 0 || unanalyzable == 0 || powers == 0 || shared == 0 {
		t.Errorf("%d subscripts, %d changed by the resolver, %d unanalyzable, %d power atoms, %d bare variables from the table: the walk is not reaching them",
			subs, resolved, unanalyzable, powers, shared)
	}
}

// TestLinearFormSlotMatchesFresh walks the same corpus pair by pair, in
// the order the analysis tests them, in the identity view of every nest
// and — where the nest is a perfect chain — in the view of its innermost
// loop with the others ranged, as the permuted test sees it. For both
// accesses of every pair and every dimension it requires the linear form
// read through the slot to be the form ExtractLinear gives for that
// pair's index list. The list is the pair's common nest, so it changes
// between pairs whose accesses sit under different inner loops: the hand
// nest makes sure of one, and the slot has to extract again there and
// reuse everywhere else.
func TestLinearFormSlotMatchesFresh(t *testing.T) {
	sources := suiteAndMega10k(t)
	sources = append(sources, source{"siblings", `
      SUBROUTINE S(N, M, A)
      INTEGER N, M, I, J, K
      REAL A(100, *)
      DO I = 1, N
        DO J = 1, M
          A(I, J) = 0.0
        END DO
        DO K = 1, M
          A(I, K + M) = A(I, K) + A(2*I, K*K)
        END DO
      END DO
      END
`})
	sameForm := func(got, want deps.LinearForm) bool {
		if len(got.Coef) != len(want.Coef) || (got.Const == nil) != (want.Const == nil) {
			return false
		}
		for v, c := range want.Coef {
			if gc, ok := got.Coef[v]; !ok || gc != c {
				return false
			}
		}
		return want.Const == nil || got.Const.String() == want.Const.String()
	}
	var pairs, reused, extracted, nonlinear, siblingsExtracted int
	for _, s := range sources {
		parsed, err := parser.ParseProgram(s.src)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		res, err := core.Compile(parser.MustParse(s.src), core.PolarisOptions())
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for _, prog := range []*ir.Program{parsed, res.Program} {
			for _, u := range prog.Units {
				tester := deps.NewTester(u, rng.New(u, symbolic.NewLeaves()))
				for _, root := range ir.Loops(u.Body) {
					n := tester.NewNest(root)
					// The analysis first, so the walk below starts from
					// whatever the pair tests left in the slots.
					tester.AnalyzeNest(n, deps.Config{})
					type view struct {
						target *ir.DoStmt
						ranged map[string]bool
					}
					views := []view{{root, n.Inner()}}
					if chain := deps.PerfectChain(root); len(chain) > 1 {
						ranged := map[string]bool{}
						for _, d := range chain[:len(chain)-1] {
							ranged[d.Index] = true
						}
						views = append(views, view{chain[len(chain)-1], ranged})
					}
					for _, vw := range views {
						for _, a := range n.Accesses() {
							if !a.Write {
								continue
							}
							for _, b := range n.Accesses() {
								if b.Array != a.Array || len(b.Subs) != len(a.Subs) {
									continue
								}
								var indices []string
								for _, d := range tester.CommonNest(vw.target, vw.ranged, a, b) {
									indices = append(indices, d.Index)
								}
								pairs++
								for _, acc := range []deps.Access{a, b} {
									for d := range acc.Subs {
										conv, _, analyzable := tester.Sub(n, acc, d)
										if !analyzable {
											continue
										}
										got, gotOK, hit := tester.Linear(n, acc, d, indices)
										want, wantOK := deps.ExtractLinear(conv.E, indices)
										if gotOK != wantOK || !sameForm(got, want) {
											t.Errorf("%s/%s: %s(%s) under DO %s over %v: slot holds %v (%v), fresh %v (%v)",
												s.name, u.Name, acc.Array, acc.Subs[d], vw.target.Index, indices, got, gotOK, want, wantOK)
										}
										switch {
										case hit:
											reused++
										case s.name == "siblings":
											siblingsExtracted++
											fallthrough
										default:
											extracted++
										}
										if !wantOK {
											nonlinear++
										}
									}
								}
							}
						}
					}
					if t.Failed() {
						return
					}
				}
			}
		}
	}
	// The hand nest's eight subscripts, each extracted for two or three
	// different lists in each of its nests and views: were the slot
	// filled once and never compared, this would read eight.
	if pairs < 5000 || reused < extracted || nonlinear == 0 || siblingsExtracted < 24 {
		t.Errorf("%d pairs, %d forms reused, %d extracted (%d in the hand nest), %d nonlinear: the walk is not reaching them",
			pairs, reused, extracted, siblingsExtracted, nonlinear)
	}
}
