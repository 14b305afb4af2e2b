package deps

import (
	"fmt"
	"sort"

	"polaris/internal/ir"
	"polaris/internal/symbolic"
)

// Config selects the capability level of the analysis.
type Config struct {
	// LinearOnly restricts the analysis to the classical GCD/Banerjee
	// tests — the 1996 vendor-compiler (PFA) capability level. When
	// false the range test runs on everything the linear tests cannot
	// decide.
	LinearOnly bool
	// Permutation enables the whole-nest permuted range test of the
	// paper's Section 3.3.1 (needed for OCEAN's FTRVMT loop).
	Permutation bool
	// SkipStmts masks statements (recognized reduction updates) from
	// pairing: an access of a masked statement takes part in no pair.
	SkipStmts map[ir.Stmt]bool
	// ExcludeArrays drops the pairs of privatized arrays.
	ExcludeArrays map[string]bool
	// Stats, when non-nil, accumulates test counts.
	Stats *Stats
}

// Stats counts dependence-test work for the evaluation harness. The
// counters are plain ints: one Stats must not be shared by concurrent
// analyses, and a compile runs its units one after another.
type Stats struct {
	PairsTested   int
	LinearDecided int
	RangeTests    int
	Permutations  int
}

// Add accumulates other into s.
func (s *Stats) Add(other *Stats) {
	s.PairsTested += other.PairsTested
	s.LinearDecided += other.LinearDecided
	s.RangeTests += other.RangeTests
	s.Permutations += other.Permutations
}

// Verdict is the analysis result for one loop.
type Verdict struct {
	Parallel bool
	// Reason explains the outcome, naming the technique that decided
	// it or the blocking construct.
	Reason string
	// Unanalyzable lists arrays whose subscripts could not be analyzed
	// (subscripted subscripts, loop-variant scalars): the LRPD
	// candidates of Section 3.5.
	Unanalyzable []string
	// HasCall reports an un-inlined CALL in the body.
	HasCall bool

	// Provenance for decision records (package obsv). These refine
	// Reason without changing it.

	// DecidedBy names the deciding test for Parallel verdicts:
	// "linear tests", "range test", or "permuted range test".
	DecidedBy string
	// Blocker names the specific blocking construct for serial
	// verdicts: the dependence-carrying array, or "CALL".
	Blocker string
	// Permutation is the proving loop order when DecidedBy is
	// "permuted range test".
	Permutation []string
}

// AnalyzeLoop is AnalyzeNest on a nest built for the one call.
func (t *Tester) AnalyzeLoop(loop *ir.DoStmt, cfg Config) Verdict {
	return t.AnalyzeNest(t.NewNest(loop), cfg)
}

// AnalyzeNest determines whether the nest's root loop carries any data
// dependence on array accesses (scalar dependences are the privatizer's
// job). The loop is analyzed as the root of its own nest; enclosing
// indices are fixed symbols.
func (t *Tester) AnalyzeNest(n *Nest, cfg Config) Verdict {
	if n.call {
		return Verdict{Parallel: false, Reason: "CALL statement in loop body", HasCall: true, Blocker: "CALL"}
	}
	v := t.analyzeTarget(n, n.root, n.inner, cfg, nil)
	if v.Parallel || !cfg.Permutation || len(v.Unanalyzable) > 0 {
		return v
	}
	// Identity order failed: try the permuted whole-nest test over the
	// perfect chain rooted here; success proves full independence.
	if ok, perm := t.permutedNestTest(n, cfg); ok {
		return Verdict{
			Parallel:    true,
			Reason:      fmt.Sprintf("range test with permuted loop order %v", perm),
			DecidedBy:   "permuted range test",
			Permutation: perm,
		}
	}
	return v
}

// IndependentUnmasked is the paper's flag removal for one reduction
// candidate: whether the loop, analyzed under cfg to verdict v, is
// still free of carried dependences with the candidate's update
// statements unmasked, as an identity-order analysis without the
// permuted test would find. A pair's answer does not depend on which
// other accesses take part, so only the pairs the mask hid are tested.
// An identity-order verdict proved every other pair; one that failed,
// or was proved only in a permuted order, failed on a pair the
// unmasked analysis fails on again, and nothing is tested.
func (t *Tester) IndependentUnmasked(n *Nest, v Verdict, cfg Config, unmask map[ir.Stmt]bool) bool {
	return v.Parallel && len(v.Permutation) == 0 && t.analyzeTarget(n, n.root, n.inner, cfg, unmask).Parallel
}

// analyzeTarget tests one target loop under a given inner-variable view,
// pair by pair in one fixed order: arrays by name, and within an array
// each write against itself, every read and every later write. An
// access takes part unless its array is excluded or its statement is
// masked and not in unmask; with unmask non-nil, only the pairs with an
// access of a statement in unmask are tested.
func (t *Tester) analyzeTarget(n *Nest, target *ir.DoStmt, ranged map[string]bool, cfg Config, unmask map[ir.Stmt]bool) Verdict {
	visible := func(a Access) bool { return !cfg.SkipStmts[a.Stmt] || unmask[a.Stmt] }
	unanalyzable := map[string]bool{}
	var tr analysisTrace
	for _, accs := range n.groups {
		if cfg.ExcludeArrays[accs[0].Array] {
			continue
		}
		for i, a := range accs {
			if !a.Write || !visible(a) {
				continue
			}
			for j, b := range accs {
				// (b,a) with b an earlier write was tested as (a,b) with
				// roles swapped; a write also pairs with itself across
				// iterations.
				if (j < i && b.Write) || !visible(b) || (unmask != nil && !unmask[a.Stmt] && !unmask[b.Stmt]) {
					continue
				}
				if !t.pairIndependent(n, target, ranged, a, b, cfg, unanalyzable, &tr) {
					return t.failVerdict(a.Array, unanalyzable)
				}
			}
		}
	}
	reason := "no carried dependences (linear tests)"
	if !cfg.LinearOnly {
		reason = "no carried dependences (linear + range test)"
	}
	decidedBy := "linear tests"
	if tr.usedRange {
		decidedBy = "range test"
	}
	return Verdict{Parallel: true, Reason: reason, DecidedBy: decidedBy}
}

func (t *Tester) failVerdict(array string, unanalyzable map[string]bool) Verdict {
	var list []string
	for n := range unanalyzable {
		list = append(list, n)
	}
	sort.Strings(list)
	reason := fmt.Sprintf("assumed dependence on %s", array)
	if unanalyzable[array] {
		reason = fmt.Sprintf("unanalyzable subscripts on %s (run-time test candidate)", array)
	}
	return Verdict{Parallel: false, Reason: reason, Unanalyzable: list, Blocker: array}
}

// analysisTrace accumulates provenance across the pair tests of one
// analyzeTarget call: whether any pair needed the range test (versus
// the linear tests alone deciding everything).
type analysisTrace struct {
	usedRange bool
}

// pairIndependent proves no dependence between a and b carried by
// target. It records unanalyzable arrays, and range-test usage in tr,
// as side effects.
func (t *Tester) pairIndependent(n *Nest, target *ir.DoStmt, ranged map[string]bool, a, b Access, cfg Config, unanalyzable map[string]bool, tr *analysisTrace) bool {
	if cfg.Stats != nil {
		cfg.Stats.PairsTested++
	}
	if len(a.Subs) != len(b.Subs) {
		return false
	}
	// Try the linear tests dimension by dimension.
	nestLoops := t.commonNest(target, ranged, a, b)
	indices := make([]string, len(nestLoops))
	for i, d := range nestLoops {
		indices[i] = d.Index
	}
	anyAnalyzable := false
	sawIndexArray := false
	for d := range a.Subs {
		sa, sb := t.sub(n, a, d), t.sub(n, b, d)
		if !sa.analyzable || !sb.analyzable {
			continue
		}
		ca, cb := sa.conv, sb.conv
		anyAnalyzable = true
		if hasArrayAtom(ca.E) || hasArrayAtom(cb.E) {
			sawIndexArray = true
		}
		fa, linA := sa.linear(indices)
		fb, linB := sb.linear(indices)
		if linA && linB && !ca.IntDivApprox && !cb.IntDivApprox {
			if ind, app := t.LinearNoCarriedDep(fa, fb, nestLoops, 0); app && ind {
				if cfg.Stats != nil {
					cfg.Stats.LinearDecided++
				}
				return true
			}
		}
	}
	if !anyAnalyzable {
		unanalyzable[a.Array] = true
		return false
	}
	if cfg.LinearOnly {
		return false
	}
	if cfg.Stats != nil {
		cfg.Stats.RangeTests++
	}
	if t.RangeTestPair(n, target, ranged, a, b) {
		tr.usedRange = true
		return true
	}
	// Subscripted subscripts (IND(I) with a read-only index array) are
	// statically intractable but run-time testable: flag the accessed
	// array as a PD-test candidate (Section 3.5).
	if sawIndexArray {
		unanalyzable[a.Array] = true
	}
	return false
}

// hasArrayAtom reports whether the subscript contains an opaque
// array-element atom (a subscripted subscript).
func hasArrayAtom(e *symbolic.Expr) bool {
	found := false
	e.EachOpaqueAtom(func(_ string, atom symbolic.Atom) bool {
		found = !atom.Call
		return !found
	})
	return found
}

// commonNest returns the loop chain for the linear tests: the target
// followed by every loop whose index is ranged (free to differ between
// the two iterations under test) that encloses either access. In the
// permuted view this includes loops textually enclosing the target;
// omitting them would silently fix their indices and make the test
// unsound.
func (t *Tester) commonNest(target *ir.DoStmt, ranged map[string]bool, a, b Access) []*ir.DoStmt {
	out := []*ir.DoStmt{target}
	seen := map[*ir.DoStmt]bool{target: true}
	for _, acc := range []Access{a, b} {
		for _, d := range acc.Loops {
			if !seen[d] && ranged[d.Index] {
				out = append(out, d)
				seen[d] = true
			}
		}
	}
	return out
}

// permutedNestTest tries permuted visitation orders of the perfect loop
// chain rooted at root; if some order proves every level free of
// carried dependences, the whole iteration space is independent and
// every loop in the chain is parallel.
func (t *Tester) permutedNestTest(n *Nest, cfg Config) (bool, []string) {
	chain := perfectChain(n.root)
	if len(chain) < 2 || len(chain) > 5 {
		return false, nil
	}
	for _, perm := range permutations(len(chain)) {
		if isIdentity(perm) {
			continue
		}
		if cfg.Stats != nil {
			cfg.Stats.Permutations++
		}
		ok := true
		for p := 0; p < len(perm) && ok; p++ {
			target := chain[perm[p]]
			ranged := map[string]bool{}
			for q := p + 1; q < len(perm); q++ {
				ranged[chain[perm[q]].Index] = true
			}
			ok = t.analyzeTarget(n, target, ranged, cfg, nil).Parallel
		}
		if ok {
			names := make([]string, len(perm))
			for i, p := range perm {
				names[i] = chain[p].Index
			}
			return true, names
		}
	}
	return false, nil
}

// perfectChain returns the chain of singly-nested loops starting at
// root (each level must contain exactly one inner loop to extend the
// chain; trailing non-loop statements end it).
func perfectChain(root *ir.DoStmt) []*ir.DoStmt {
	chain := []*ir.DoStmt{root}
	cur := root
	for {
		inner := ir.InnerLoops(cur)
		if len(inner) != 1 {
			return chain
		}
		chain = append(chain, inner[0])
		cur = inner[0]
	}
}

func permutations(n int) [][]int {
	var out [][]int
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), perm...))
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return out
}

func isIdentity(p []int) bool {
	for i, v := range p {
		if i != v {
			return false
		}
	}
	return true
}
