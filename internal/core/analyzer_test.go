package core_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"polaris/internal/codegen"
	"polaris/internal/core"
	"polaris/internal/deps"
	"polaris/internal/fuzzgen"
	"polaris/internal/obsv"
	"polaris/internal/parser"
)

var updateAnalyzerGolden = flag.Bool("update-analyzer-golden", false,
	"rewrite testdata/analyzer_golden.sha256 (only from a commit trusted as the reference)")

const analyzerGoldenPath = "testdata/analyzer_golden.sha256"

// normalizedSrc has a loop normalize rewrites in each of two units: the
// constant-step loops become unit-step ones over fresh indices, so the
// analyzer normalize was handed describes text that is gone.
const normalizedSrc = `
      PROGRAM NORM
      INTEGER N, I, J
      PARAMETER (N=40)
      REAL A(100), B(100)
      DO I = 1, N, 2
        A(I) = A(I) + 1.0
      END DO
      DO J = 2, N
        B(J) = A(J) * 0.5
      END DO
      CALL STRIDE(B)
      END
      SUBROUTINE STRIDE(X)
      INTEGER M, K
      REAL X(100)
      M = 90
      DO K = M, 3, -3
        X(K) = X(K) + X(K+1)
      END DO
      END
`

// inductionSrc has a unit where induction solves two cascaded variables
// (the closed forms land in subscripts the dependence pass must then
// read with the post-substitution constants) and one where it solves
// none, so kept and rebuilt analyzers sit side by side in one compile.
const inductionSrc = `
      PROGRAM IND
      INTEGER N, I, J, K1, K2
      PARAMETER (N=12)
      REAL A(400), B(400)
      K1 = 0
      K2 = 0
      DO I = 1, N
        K1 = K1 + 1
        DO J = 1, I
          K2 = K2 + 1
          A(K2) = B(K1) + 1.0
        END DO
      END DO
      CALL PLAIN(A, B)
      END
      SUBROUTINE PLAIN(X, Y)
      INTEGER L, M
      REAL X(400), Y(400)
      M = 200
      DO L = 1, M
        X(L + M) = X(L) + Y(L)
      END DO
      END
`

// analyzerCorpus is the programs whose whole compile is pinned: the two
// hand units and a fixed-seed sweep of 200 generated programs, every
// idiom the generator has (triangular nests, cascaded induction,
// gather/compress, guarded flow) many times over.
func analyzerCorpus() (names []string, src map[string]string) {
	src = map[string]string{"normalized": normalizedSrc, "induction": inductionSrc}
	names = []string{"normalized", "induction"}
	for seed := uint64(1); seed <= 200; seed++ {
		name := fmt.Sprintf("fuzzgen-%03d", seed)
		names = append(names, name)
		src[name] = fuzzgen.Generate(fuzzgen.Config{Seed: seed}).Source
	}
	return names, src
}

// compileFingerprint compiles src and hashes everything a stale range
// analyzer could change: the emitted Fortran (report header, directives
// and the transformed text), the full decision stream and the pass
// counters folded into the Result. The dependence-test counts come back
// beside the hash as plain text, so a change that moves only the work
// the analysis does says so in the golden's diff.
func compileFingerprint(t *testing.T, src string, memo *core.UnitMemo) (sum, counts string) {
	t.Helper()
	obs := obsv.NewObserver()
	opt := core.PolarisOptions()
	opt.UnitMemo = memo
	opt.Observer = obs
	opt.TraceLabel = "P"
	opt.Stats = &deps.Stats{}
	res, err := core.Compile(parser.MustParse(src), opt)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	decisions, err := json.Marshal(obs.Decisions())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%d %d %v", codegen.EmitFortran(res), decisions,
		res.NormalizedLoops, res.StrengthReduced, res.InductionVars)
	s := opt.Stats
	return hex.EncodeToString(h.Sum(nil)), fmt.Sprintf("pairs=%d linear=%d range=%d perm=%d",
		s.PairsTested, s.LinearDecided, s.RangeTests, s.Permutations)
}

// TestAnalyzerRebuiltAfterMutation holds the one-analyzer-per-unit
// driver to the compiler that built a fresh analyzer in every pass:
// testdata/analyzer_golden.sha256 was written by the commit before the
// change (this file copied into it and run with -update-analyzer-golden),
// one line per program of hash, name and dependence-test counts, and
// every program must still compile to the same Fortran, decision stream
// and counts, when its units fill a unit memo and when they replay from
// it. The second half shows the rebuild itself, on a program whose
// verdict depends on it.
func TestAnalyzerRebuiltAfterMutation(t *testing.T) {
	t.Run("same compiler", sameCompilerAsParent)
	t.Run("replaced after a rewrite", analyzerReplacedAfterRewrite)
}

func sameCompilerAsParent(t *testing.T) {
	names, src := analyzerCorpus()
	if *updateAnalyzerGolden {
		var out strings.Builder
		for _, name := range names {
			sum, counts := compileFingerprint(t, src[name], nil)
			fmt.Fprintf(&out, "%s  %s  %s\n", sum, name, counts)
		}
		if err := os.WriteFile(analyzerGoldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(analyzerGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type line struct{ sum, counts string }
	want := map[string]line{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if fields := strings.SplitN(sc.Text(), "  ", 3); len(fields) == 3 {
			want[fields[1]] = line{fields[0], fields[2]}
		}
	}
	if len(want) != len(names) {
		t.Fatalf("%s names %d programs, want %d", analyzerGoldenPath, len(want), len(names))
	}

	// The hand units do what their names say, or they pin nothing.
	for name, check := range map[string]func(*core.Result) bool{
		"normalized": func(r *core.Result) bool { return r.NormalizedLoops >= 2 },
		"induction":  func(r *core.Result) bool { return len(r.InductionVars) == 2 },
	} {
		res, err := core.Compile(parser.MustParse(src[name]), core.PolarisOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !check(res) {
			t.Fatalf("%s: normalized %d loops, solved %v", name, res.NormalizedLoops, res.InductionVars)
		}
	}

	check := func(name, path string, memo *core.UnitMemo) {
		sum, counts := compileFingerprint(t, src[name], memo)
		if w := want[name]; sum != w.sum {
			t.Errorf("%s%s: compile hashes to %.12s, the parent's to %.12s", name, path, sum, w.sum)
		} else if counts != w.counts {
			t.Errorf("%s%s: dependence tests %s, the parent's %s", name, path, counts, w.counts)
		}
	}
	for _, name := range names {
		check(name, "", nil)
		memo := core.NewUnitMemo(core.MemoLimits{})
		check(name, " filling the unit memo", memo)
		check(name, " replayed from the unit memo", memo)
	}
}

// analyzerReplacedAfterRewrite shows the rebuilt analyzer at work. I is
// a DO index, which keeps it out of the constant table normalize is
// handed. Normalize moves the second loop onto a fresh index; I = 3 is
// then all there is to I, and the first loop is independent exactly when
// the dependence pass knows it: B(J+3) against B(J) over 1..3. An
// analyzer kept across the rewrite leaves I symbolic and the loop
// serial.
//
// Normalize is the pass that can do this. Induction is held to the same
// rule, but a variable it solves ends with two assignments (the one
// before the nest and the exit value) or none, never the single one a
// constant needs, so no program shows its rebuild in a verdict.
func analyzerReplacedAfterRewrite(t *testing.T) {
	const src = `
      PROGRAM P
      INTEGER I, J
      REAL A(100), B(100)
      I = 3
      DO J = 1, 3
        B(J + I) = B(J) + 1.0
      END DO
      DO I = 1, 9, 2
        A(I) = 2.0
      END DO
      END
`
	res, err := core.Compile(parser.MustParse(src), core.PolarisOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.NormalizedLoops != 1 || len(res.Loops) != 2 || res.Loops[0].Index != "J" {
		t.Fatalf("normalized %d loops of %+v", res.NormalizedLoops, res.Loops)
	}
	if lr := res.Loops[0]; !lr.Parallel {
		t.Errorf("DO J is serial (%s): the dependence pass did not see I = 3, the constant normalize left behind", lr.Reason)
	}

	// With normalize off I stays a DO index: the same loop must stay
	// serial, or the verdict above proves nothing about I.
	opt := core.PolarisOptions()
	opt.Normalize = false
	res, err = core.Compile(parser.MustParse(src), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Loops[0].Parallel {
		t.Errorf("DO J is parallel while I is a DO index (%s)", res.Loops[0].Reason)
	}
}

// TestCompileBytesPerLine holds the cold compile of mega10k (parsed
// outside the measurement) to its allocation per source line: the
// number ROADMAP [work-counters] tracks, at a size tier 1 can afford.
// The budget is the measured figure plus a tenth.
func TestCompileBytesPerLine(t *testing.T) {
	source := fuzzgen.MegaCorpus()[0].Generate().Source // mega10k
	lines := strings.Count(source, "\n")
	best := uint64(1 << 62)
	for i := 0; i < 3; i++ {
		prog := parser.MustParse(source)
		opt := core.PolarisOptions()
		opt.TrustedInput = true
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := core.Compile(prog, opt); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d < best {
			best = d
		}
	}
	perLine := float64(best) / float64(lines)
	t.Logf("mega10k: %d bytes over %d lines, %.0f bytes per line", best, lines, perLine)
	const budget = 1697 // 1543 measured plus a tenth; parent 1930 before one leaf table per compile and one nest walk per loop; 2484 with an analyzer per pass
	if perLine > budget {
		t.Errorf("cold compile allocates %.0f bytes per source line; budget %d", perLine, budget)
	}
}
