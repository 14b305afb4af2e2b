package core_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"polaris/internal/codegen"
	"polaris/internal/core"
	"polaris/internal/deps"
	"polaris/internal/fuzzgen"
	"polaris/internal/ir"
	"polaris/internal/obsv"
	"polaris/internal/parser"
)

func mustParse(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

// verdictLines renders the loop verdicts in report order for
// byte-identity comparison.
func verdictLines(res *core.Result) []string {
	out := make([]string, len(res.Loops))
	for i, lr := range res.Loops {
		out[i] = fmt.Sprintf("%s depth=%d parallel=%t lrpd=%v reason=%q", lr.ID, lr.Depth, lr.Parallel, lr.RunTimeTest, lr.Reason)
	}
	return out
}

// TestIncrementalDifferential is the correctness gate of incremental
// compilation: compile a megaprogram to warm the unit memo, edit one
// unit, then compile the edited program both incrementally (against
// the warm memo) and from scratch — the two must agree byte-for-byte
// on verdicts, on the full Decision stream, on everything the driver
// folds out of a unit's record (dependence-test counts, induction
// variables, normalized loops, strength reductions, every pass's
// mutation counts), and on the emitted Go. The incremental compile must
// also touch exactly one unit.
func TestIncrementalDifferential(t *testing.T) {
	spec := fuzzgen.MegaCorpus()[0] // mega10k: big enough to matter, fast enough for tier 1
	mp := spec.Generate()
	editedSrc, editedUnit := fuzzgen.EditOneUnit(mp.Source, 3, 7)
	if editedUnit == "" {
		t.Fatal("EditOneUnit found no phase to edit")
	}
	// Units compile one after another, in program order: the serial
	// schedule is the only one, and the subtest is named for it.
	t.Run("serial", func(t *testing.T) {
		checkIncrementalDifferential(t, mp.Source, editedSrc)
	})
}

// checkIncrementalDifferential warms a unit memo on src, then compiles
// editedSrc against it and from scratch, and compares the two.
func checkIncrementalDifferential(t *testing.T, src, editedSrc string) {
	t.Helper()
	ctx := context.Background()
	memo := core.NewUnitMemo(core.MemoLimits{})

	warmOpt := core.PolarisOptions()
	warmOpt.UnitMemo = memo
	warmOpt.TraceLabel = "warm"
	warmRes, err := core.CompileContext(ctx, mustParse(t, src), warmOpt)
	if err != nil {
		t.Fatalf("warm compile: %v", err)
	}
	if warmRes.UnitsReused != 0 || warmRes.UnitsRecompiled != len(warmRes.Program.Units) {
		t.Fatalf("warm compile: reused=%d recompiled=%d, want 0/%d",
			warmRes.UnitsReused, warmRes.UnitsRecompiled, len(warmRes.Program.Units))
	}

	// The warm compile kept no Stats: the records must carry the counts
	// regardless.
	var incStats, scrStats deps.Stats
	incObs := obsv.NewObserver()
	incOpt := warmOpt
	incOpt.TraceLabel = "edit"
	incOpt.Observer = incObs
	incOpt.Stats = &incStats
	// TrustedInput on the incremental side only: the byte-identity
	// assertions below double as its observation-only proof.
	incOpt.TrustedInput = true
	incRes, err := core.CompileContext(ctx, mustParse(t, editedSrc), incOpt)
	if err != nil {
		t.Fatalf("incremental compile: %v", err)
	}
	if incRes.UnitsRecompiled != 1 {
		t.Errorf("one-unit edit recompiled %d units (reused %d), want exactly 1",
			incRes.UnitsRecompiled, incRes.UnitsReused)
	}
	if incRes.UnitsReused != len(incRes.Program.Units)-1 {
		t.Errorf("reused %d of %d units, want all but one",
			incRes.UnitsReused, len(incRes.Program.Units))
	}

	scrObs := obsv.NewObserver()
	scrOpt := core.PolarisOptions()
	scrOpt.TraceLabel = "edit"
	scrOpt.Observer = scrObs
	scrOpt.Stats = &scrStats
	scrRes, err := core.CompileContext(ctx, mustParse(t, editedSrc), scrOpt)
	if err != nil {
		t.Fatalf("from-scratch compile: %v", err)
	}
	if scrRes.UnitsReused != 0 || scrRes.UnitsRecompiled != 0 {
		t.Errorf("memo-less compile reported units_reused=%d units_recompiled=%d, want 0/0",
			scrRes.UnitsReused, scrRes.UnitsRecompiled)
	}

	// Verdicts, byte for byte.
	iv, sv := verdictLines(incRes), verdictLines(scrRes)
	if !reflect.DeepEqual(iv, sv) {
		if len(iv) != len(sv) {
			t.Fatalf("verdict counts differ: incremental %d, scratch %d", len(iv), len(sv))
		}
		for i := range iv {
			if iv[i] != sv[i] {
				t.Fatalf("verdict %d differs:\n  incremental: %s\n  scratch:     %s", i, iv[i], sv[i])
			}
		}
	}

	// The full Decision stream, order included. Replayed clean
	// units must be indistinguishable from re-analyzed ones,
	// relabeled to this compilation's label.
	id, sd := incObs.Decisions(), scrObs.Decisions()
	if len(id) != len(sd) {
		t.Fatalf("decision counts differ: incremental %d, scratch %d", len(id), len(sd))
	}
	for i := range id {
		if !reflect.DeepEqual(id[i], sd[i]) {
			t.Fatalf("decision %d differs:\n  incremental: %+v\n  scratch:     %+v", i, id[i], sd[i])
		}
	}

	// What the driver folds out of each unit's record, replayed or live.
	if incStats != scrStats {
		t.Errorf("dependence-test counts differ: incremental %+v, scratch %+v", incStats, scrStats)
	}
	if !reflect.DeepEqual(incRes.InductionVars, scrRes.InductionVars) {
		t.Errorf("induction variables differ: incremental %d, scratch %d", len(incRes.InductionVars), len(scrRes.InductionVars))
	}
	if incRes.NormalizedLoops != scrRes.NormalizedLoops || incRes.StrengthReduced != scrRes.StrengthReduced {
		t.Errorf("normalized/strength-reduced: incremental %d/%d, scratch %d/%d",
			incRes.NormalizedLoops, incRes.StrengthReduced, scrRes.NormalizedLoops, scrRes.StrengthReduced)
	}
	im, sm := passMutations(incRes), passMutations(scrRes)
	if !reflect.DeepEqual(im, sm) {
		t.Errorf("pass mutation counts differ:\n  incremental: %v\n  scratch:     %v", im, sm)
	}
	// Not equal for want of anything to compare.
	if scrStats.PairsTested == 0 || len(scrRes.InductionVars) == 0 || sm["strength-reduction"]["verdict_flips"] == 0 {
		t.Errorf("the program exercises too little: %+v, %d induction variables, mutations %v",
			scrStats, len(scrRes.InductionVars), sm["strength-reduction"])
	}

	// Emitted Go, byte for byte.
	igo, err := codegen.EmitGo(incRes, codegen.GoOptions{Processors: 8, Label: "edit"})
	if err != nil {
		t.Fatalf("emit incremental: %v", err)
	}
	sgo, err := codegen.EmitGo(scrRes, codegen.GoOptions{Processors: 8, Label: "edit"})
	if err != nil {
		t.Fatalf("emit scratch: %v", err)
	}
	if igo != sgo {
		t.Fatal("emitted Go differs between incremental and from-scratch compiles")
	}

	if got := memo.Stats(); got.Hits == 0 {
		t.Errorf("memo recorded no hits across the incremental recompile: %+v", got)
	}
}

// passMutations maps each pass of a compile's report to its mutation
// counts, leaving out unit-hash, which only a memo compile runs.
func passMutations(res *core.Result) map[string]map[string]int64 {
	m := map[string]map[string]int64{}
	for _, sp := range res.Report.Events {
		if sp.Pass != "unit-hash" {
			m[sp.Pass] = sp.Mutations
		}
	}
	return m
}

// churnSources builds small multi-unit variants that pairwise share
// units: variant k rewrites one statement in unit Sk only, so
// concurrent compilations of different variants continuously hit,
// miss, and evict each other's memo entries.
func churnSources() []string {
	const tmpl = `      PROGRAM MAIN
      REAL A(64), B(64)
      INTEGER I
      COMMON /BLK/ A, B
      DO I = 1, 64
        A(I) = B(I) + 1.0
      END DO
      END

      SUBROUTINE S1(N)
      INTEGER N
      REAL A(64), B(64)
      INTEGER I
      COMMON /BLK/ A, B
      DO I = 1, 64
        A(I) = A(I) * %s
      END DO
      END

      SUBROUTINE S2(DUMMY)
      REAL DUMMY
      REAL A(64), B(64)
      INTEGER J
      COMMON /BLK/ A, B
      DO J = 1, 64
        B(J) = A(J) + %s
      END DO
      END

      SUBROUTINE S3(DUMMY)
      REAL DUMMY
      REAL A(64), B(64)
      INTEGER K, M
      COMMON /BLK/ A, B
      M = 0
      DO K = 1, 64
        M = M + 2
        B(K) = A(M) + %s
      END DO
      END
`
	consts := [][3]string{
		{"2.0", "3.0", "4.0"},
		{"5.0", "3.0", "4.0"},
		{"2.0", "6.0", "4.0"},
		{"2.0", "3.0", "7.0"},
	}
	out := make([]string, len(consts))
	for i, c := range consts {
		out[i] = fmt.Sprintf(tmpl, c[0], c[1], c[2])
	}
	return out
}

// TestUnitMemoChurn is the eviction-vs-in-flight race gate: many
// goroutines compile overlapping program variants against one
// deliberately tiny memo (MaxEntries far below the live unit count),
// so completed entries are evicted constantly while sibling
// compilations still wait on in-flight fills. Every single request
// must nevertheless produce exactly the from-scratch Decision stream —
// pinned in-flight entries guarantee no waiter-set split, and failed
// claims are retried, never consumed. Run under -race in CI.
func TestUnitMemoChurn(t *testing.T) {
	ctx := context.Background()
	srcs := churnSources()

	// From-scratch references, one per variant.
	refs := make([][]obsv.Decision, len(srcs))
	for i, src := range srcs {
		obs := obsv.NewObserver()
		opt := core.PolarisOptions()
		opt.TraceLabel = "churn"
		opt.Observer = obs
		if _, err := core.CompileContext(ctx, mustParse(t, src), opt); err != nil {
			t.Fatalf("reference compile %d: %v", i, err)
		}
		refs[i] = obs.Decisions()
	}

	memo := core.NewUnitMemo(core.MemoLimits{MaxEntries: 2})
	const goroutines = 8
	const iters = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				v := (g*7 + it*3) % len(srcs)
				obs := obsv.NewObserver()
				opt := core.PolarisOptions()
				opt.TraceLabel = "churn"
				opt.Observer = obs
				opt.UnitMemo = memo
				prog, err := parser.ParseProgram(srcs[v])
				if err != nil {
					errs <- err
					return
				}
				res, err := core.CompileContext(ctx, prog, opt)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %w", g, it, err)
					return
				}
				if res.UnitsReused+res.UnitsRecompiled != len(res.Program.Units) {
					errs <- fmt.Errorf("goroutine %d iter %d: reused %d + recompiled %d != %d units",
						g, it, res.UnitsReused, res.UnitsRecompiled, len(res.Program.Units))
					return
				}
				got := obs.Decisions()
				if !reflect.DeepEqual(got, refs[v]) {
					errs <- fmt.Errorf("goroutine %d iter %d variant %d: decision stream diverged from the from-scratch reference (%d vs %d records)",
						g, it, v, len(got), len(refs[v]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := memo.Stats()
	if st.Entries > 2 {
		t.Errorf("completed entries %d exceed MaxEntries=2", st.Entries)
	}
	if st.Hits == 0 || st.Evictions == 0 {
		t.Errorf("churn did not exercise both reuse and eviction: %+v", st)
	}
}

// TestIncrementalRelabel verifies the memo replays Decision provenance
// under the requesting compilation's trace label, not the label of the
// compilation that filled the entry.
func TestIncrementalRelabel(t *testing.T) {
	ctx := context.Background()
	src := churnSources()[0]
	memo := core.NewUnitMemo(core.MemoLimits{})

	opt := core.PolarisOptions()
	opt.UnitMemo = memo
	opt.TraceLabel = "first"
	if _, err := core.CompileContext(ctx, mustParse(t, src), opt); err != nil {
		t.Fatal(err)
	}

	obs := obsv.NewObserver()
	opt.TraceLabel = "second"
	opt.Observer = obs
	res, err := core.CompileContext(ctx, mustParse(t, src), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.UnitsReused != len(res.Program.Units) {
		t.Fatalf("identical recompile reused %d of %d units", res.UnitsReused, len(res.Program.Units))
	}
	ds := obs.Decisions()
	if len(ds) == 0 {
		t.Fatal("no decisions replayed")
	}
	for _, d := range ds {
		if d.Label != "second" {
			t.Fatalf("replayed decision kept stale label %q: %+v", d.Label, d)
		}
		if strings.Contains(d.Label, "first") {
			t.Fatalf("replayed decision leaked the filling compilation's label: %+v", d)
		}
	}
}

// interprocSrc builds a program where subroutine W is specialized by
// interprocedural constant propagation whenever both of its callers
// pass the same literal. The n1/n2 arguments are the literals S1 and
// S2 pass.
func interprocSrc(n1, n2 int) string {
	return fmt.Sprintf(`      PROGRAM MAIN
      REAL A(64)
      INTEGER I
      COMMON /BLK/ A
      DO I = 1, 64
        A(I) = 1.0
      END DO
      CALL S1
      CALL S2
      END

      SUBROUTINE S1
      REAL A(64)
      COMMON /BLK/ A
      CALL W(%d)
      END

      SUBROUTINE S2
      REAL A(64)
      COMMON /BLK/ A
      CALL W(%d)
      END

      SUBROUTINE W(N)
      INTEGER N
      REAL A(64)
      INTEGER I
      COMMON /BLK/ A
      DO I = 1, N
        A(I) = A(I) * 2.0
      END DO
      END
`, n1, n2)
}

// TestIncrementalInterprocInvalidation pins the cross-unit dirty-set
// propagation of the edit-signature scheme: editing one caller's
// constant argument must invalidate not just that caller but also the
// callee whose specialization changes and every *other* caller whose
// call sites are rewritten differently — even though their raw source
// is byte-identical across the two versions.
func TestIncrementalInterprocInvalidation(t *testing.T) {
	ctx := context.Background()
	memo := core.NewUnitMemo(core.MemoLimits{})

	// v1: both callers pass 8, so W is specialized (N dropped, made
	// PARAMETER) and both call sites lose their argument.
	warm := core.PolarisOptions()
	warm.UnitMemo = memo
	res1, err := core.CompileContext(ctx, mustParse(t, interprocSrc(8, 8)), warm)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.InterprocConstants) == 0 {
		t.Fatal("v1 did not specialize W; the test premise is broken")
	}

	// v2: S1 now passes 16 — the argument is no longer uniform, so W
	// is not specialized and S2's call site is not rewritten, even
	// though S2's and W's raw source is unchanged.
	opt := core.PolarisOptions()
	opt.UnitMemo = memo
	inc, err := core.CompileContext(ctx, mustParse(t, interprocSrc(16, 8)), opt)
	if err != nil {
		t.Fatal(err)
	}
	if inc.UnitsRecompiled != 3 || inc.UnitsReused != 1 {
		t.Fatalf("v2 recompiled %d / reused %d units, want 3 recompiled (S1, S2, W) and 1 reused (MAIN)",
			inc.UnitsRecompiled, inc.UnitsReused)
	}
	if len(inc.InterprocConstants) != 0 {
		t.Fatalf("v2 specialized %v; a non-uniform argument must not propagate", inc.InterprocConstants)
	}

	// The memoized replay must be indistinguishable from a cold v2.
	cold, err := core.CompileContext(ctx, mustParse(t, interprocSrc(16, 8)), core.PolarisOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := verdictLines(inc), verdictLines(cold); !reflect.DeepEqual(got, want) {
		t.Errorf("incremental verdicts diverge from cold:\n inc: %v\ncold: %v", got, want)
	}
	if got, want := inc.Program.Fortran(), cold.Program.Fortran(); got != want {
		t.Error("incremental program rendering diverges from cold compile")
	}
}
