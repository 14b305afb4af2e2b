package suite

import (
	"context"
	"math"
	"testing"

	"polaris/internal/core"
	"polaris/internal/interp"
	"polaris/internal/ir"
	"polaris/internal/machine"
)

func TestAllProgramsParseAndRunSerially(t *testing.T) {
	rows, err := NewRunner().Table1(context.Background())
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(rows) != 16 {
		t.Fatalf("want 16 programs, got %d", len(rows))
	}
	for _, r := range rows {
		if r.SerialCycles <= 0 {
			t.Errorf("%s: no work executed", r.Name)
		}
		if r.Lines < 25 {
			t.Errorf("%s: suspiciously small (%d lines)", r.Name, r.Lines)
		}
		if math.IsNaN(r.Checksum) || math.IsInf(r.Checksum, 0) {
			t.Errorf("%s: bad checksum %v", r.Name, r.Checksum)
		}
	}
}

// TestParallelSemanticsMatchSerial is the central correctness check of
// the harness: for every program, the Polaris-transformed parallel
// execution (with reversed iteration order to catch order dependence)
// reproduces the serial checksum.
func TestParallelSemanticsMatchSerial(t *testing.T) {
	progs := append(All(), Track(), failingTrack)
	for _, p := range progs {
		_, serialSum, err := NewRunner().serialTime(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		compiled, err := core.Compile(p.Parse(), core.PolarisOptions())
		if err != nil {
			t.Fatalf("%s: compile: %v", p.Name, err)
		}
		in := interp.New(compiled.Program, machine.Default())
		in.Parallel = true
		in.Validate = true
		if err := in.Run(); err != nil {
			t.Fatalf("%s: parallel run: %v", p.Name, err)
		}
		got, _ := in.Probe("OUT", "RESULT")
		// Reductions reassociate in reverse order: allow tiny float
		// drift relative to magnitude.
		tol := 1e-9 * (1 + math.Abs(serialSum))
		if math.Abs(got-serialSum) > tol {
			t.Errorf("%s: parallel checksum %v != serial %v\n%s", p.Name, got, serialSum, compiled.Summary())
		}
	}
}

// TestPFASemanticsMatchSerial repeats the check for the baseline.
func TestPFASemanticsMatchSerial(t *testing.T) {
	rows, err := NewRunner().Figure7(context.Background(), 8)
	if err != nil {
		t.Fatalf("Figure7: %v", err)
	}
	for _, r := range rows {
		tol := 1e-9 * (1 + math.Abs(r.SerialChecksum))
		if math.Abs(r.PolarisChecksum-r.SerialChecksum) > tol {
			t.Errorf("%s: Polaris checksum %v != serial %v", r.Name, r.PolarisChecksum, r.SerialChecksum)
		}
		if math.Abs(r.PFAChecksum-r.SerialChecksum) > tol {
			t.Errorf("%s: PFA checksum %v != serial %v", r.Name, r.PFAChecksum, r.SerialChecksum)
		}
	}
}

// TestFigure7Shape asserts the qualitative structure of the paper's
// Figure 7 on the synthetic suite:
//   - Polaris achieves substantial speedups (>= 3 at 8 processors) on
//     the codes whose idioms need its techniques;
//   - PFA stays near 1 on those codes;
//   - both are near 1 on the recurrence-bound codes;
//   - PFA beats Polaris on exactly the two pure-stencil codes (its
//     code generation advantage);
//   - PFA's code generation backfires (speedup < 1) on appsp/tomcatv's
//     shape at least once.
func TestFigure7Shape(t *testing.T) {
	rows, err := NewRunner().Figure7(context.Background(), 8)
	if err != nil {
		t.Fatalf("Figure7: %v", err)
	}
	byName := map[string]Fig7Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	polarisWins := []string{"trfd", "ocean", "bdna", "mdg", "arc2d", "flo52", "tfft2", "cmhog", "cloud3d", "wave5", "tomcatv"}
	for _, name := range polarisWins {
		r := byName[name]
		if r.Polaris < 3.0 {
			t.Errorf("%s: Polaris speedup %.2f, want >= 3", name, r.Polaris)
		}
		if r.PFA > r.Polaris*0.75 {
			t.Errorf("%s: PFA %.2f too close to Polaris %.2f", name, r.PFA, r.Polaris)
		}
	}
	for _, name := range []string{"applu", "su2cor"} {
		r := byName[name]
		if r.Polaris > 2.0 || r.PFA > 2.0 {
			t.Errorf("%s: recurrence code got speedup Polaris=%.2f PFA=%.2f, want near 1", name, r.Polaris, r.PFA)
		}
	}
	pfaWins := 0
	for _, r := range rows {
		if r.PFA > r.Polaris {
			pfaWins++
			if r.Name != "swim" && r.Name != "hydro2d" {
				t.Errorf("unexpected PFA win on %s (PFA %.2f vs Polaris %.2f)", r.Name, r.PFA, r.Polaris)
			}
		}
	}
	if pfaWins != 2 {
		t.Errorf("PFA wins on %d codes, want 2 (paper)", pfaWins)
	}
	backfired := 0
	for _, name := range []string{"appsp", "tomcatv"} {
		if byName[name].PFA < 1.0 {
			backfired++
		}
	}
	if backfired == 0 {
		t.Errorf("PFA codegen backfire not reproduced on appsp/tomcatv: %+v %+v", byName["appsp"], byName["tomcatv"])
	}
}

// TestFigure6Shape asserts the TRACK plots: speedup grows with
// processors despite 10% failed speculation, and the potential
// slowdown stays a small constant factor.
func TestFigure6Shape(t *testing.T) {
	rows, err := NewRunner().Figure6(context.Background(), 8)
	if err != nil {
		t.Fatalf("Figure6: %v", err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Failures == 0 || r.Passes == 0 {
			t.Fatalf("p=%d: passes=%d failures=%d, want mixed outcomes", r.Procs, r.Passes, r.Failures)
		}
		ratio := float64(r.Passes) / float64(r.Passes+r.Failures)
		if math.Abs(ratio-0.9) > 0.01 {
			t.Errorf("p=%d: parallel invocation ratio %.2f, want 0.90", r.Procs, ratio)
		}
		if r.Slowdown < 1.0 {
			t.Errorf("p=%d: slowdown %.3f < 1", r.Procs, r.Slowdown)
		}
		// The failed attempt costs about T_seq/p extra, so the ratio
		// starts near 2 at p=1 and falls toward 1 (paper 3.5.3).
		if r.Slowdown > 2.5 {
			t.Errorf("p=%d: slowdown %.3f implausibly large", r.Procs, r.Slowdown)
		}
	}
	if !(rows[7].Speedup > rows[3].Speedup && rows[3].Speedup > rows[1].Speedup) {
		t.Errorf("speedup not increasing with processors: %+v", rows)
	}
	if rows[7].Speedup < 2.5 {
		t.Errorf("8-processor TRACK speedup %.2f, want > 2.5", rows[7].Speedup)
	}
	if rows[7].Slowdown > 1.5 {
		t.Errorf("8-processor slowdown %.3f, want < 1.5", rows[7].Slowdown)
	}
	// Slowdown shrinks (or stays flat) as processors increase: the PD
	// test parallelizes (paper Section 3.5.3).
	if rows[7].Slowdown > rows[0].Slowdown+1e-9 {
		t.Errorf("slowdown grew with processors: p1=%.3f p8=%.3f", rows[0].Slowdown, rows[7].Slowdown)
	}
}

// TestKeyLoopVerdicts pins down which technique parallelizes each
// program's central loop (the per-program claims of EXPERIMENTS.md).
func TestKeyLoopVerdicts(t *testing.T) {
	check := func(name string, wantParallelIdx []string, wantLRPDIdx []string) {
		t.Helper()
		p, ok := ByName(name)
		if !ok {
			t.Fatalf("no program %s", name)
		}
		res, err := core.Compile(p.Parse(), core.PolarisOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		parallel := map[string]bool{}
		lrpd := map[string]bool{}
		for _, lr := range res.Loops {
			if lr.Parallel {
				parallel[lr.Index] = true
			}
			if len(lr.RunTimeTest) > 0 {
				lrpd[lr.Index] = true
			}
		}
		for _, idx := range wantParallelIdx {
			if !parallel[idx] {
				t.Errorf("%s: loop %s not parallel\n%s", name, idx, res.Summary())
			}
		}
		for _, idx := range wantLRPDIdx {
			if !lrpd[idx] {
				t.Errorf("%s: loop %s not an LRPD candidate\n%s", name, idx, res.Summary())
			}
		}
	}
	check("trfd", []string{"I", "J"}, nil) // K is strength-reduced (runs inside the parallel I)
	check("ocean", []string{"K", "J", "I"}, nil)
	check("bdna", []string{"I"}, nil)
	check("mdg", []string{"I"}, nil)
	check("arc2d", []string{"J"}, nil)
	check("flo52", []string{"J"}, nil)
	check("tfft2", []string{"G"}, nil) // J is strength-reduced under G
	check("tomcatv", []string{"J"}, nil)
	check("cmhog", []string{"K"}, nil)
	check("cloud3d", []string{"P"}, nil)
	check("wave5", nil, []string{"P"})
	check("track", nil, []string{"I"})
}

// TestAblationShape checks that each technique's removal hurts the
// programs designed to need it (the paper's implicit claim that all
// five technique families are necessary).
func TestAblationShape(t *testing.T) {
	rows, err := Ablation(8)
	if err != nil {
		t.Fatalf("Ablation: %v", err)
	}
	hurtBy := map[string][]string{}
	for _, r := range rows {
		hurtBy[r.Technique] = r.HurtPrograms
		// Removing a technique must never help much; tiny gains are
		// possible when the runtime's outermost-parallel choice is not
		// optimal for small trip counts (ocean's permuted outer loop).
		if r.GeoMean > r.FullGeoMean*1.05 {
			t.Errorf("removing %s improved the geomean (%.3f > %.3f)", r.Technique, r.GeoMean, r.FullGeoMean)
		}
	}
	expect := map[string]string{
		"array privatization":   "bdna",
		"range test":            "trfd",
		"generalized induction": "trfd",
		"run-time (LRPD) test":  "wave5",
		"histogram reductions":  "mdg",
	}
	for tech, prog := range expect {
		found := false
		for _, p := range hurtBy[tech] {
			if p == prog {
				found = true
			}
		}
		if !found {
			t.Errorf("removing %s did not hurt %s (hurt: %v)", tech, prog, hurtBy[tech])
		}
	}
}

// TestPermutationChangesOceanVerdict checks the compile-level effect of
// the permuted range test (its runtime benefit depends on trip counts,
// so the ablation above measures verdicts here instead of speedup).
func TestPermutationChangesOceanVerdict(t *testing.T) {
	p, _ := ByName("ocean")
	outerParallel := func(permutation bool) bool {
		opt := core.PolarisOptions()
		opt.Permutation = permutation
		res, err := core.Compile(p.Parse(), opt)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		for _, lr := range res.Loops {
			if lr.Index != "K" || lr.Depth != 0 || !lr.Parallel {
				continue
			}
			for _, d := range ir.Loops(res.Program.Unit(lr.Unit).Body) {
				if d.ID == lr.ID && len(ir.InnerLoops(d)) > 0 {
					return true
				}
			}
		}
		return false
	}
	if !outerParallel(true) {
		t.Errorf("ocean outer K loop not parallel with permutation")
	}
	if outerParallel(false) {
		t.Errorf("ocean outer K loop parallel even without permutation")
	}
}

// TestInlineChangesCMHOGVerdict: cmhog's plane sweep sits in a
// subroutine with a caller-allocated scratch row; the CALL blocks the
// K loop until inline expansion exposes it (and privatization of W
// then enables it) — the paper's §3.1 inlining-feeds-privatization
// point.
func TestInlineChangesCMHOGVerdict(t *testing.T) {
	p, _ := ByName("cmhog")
	kParallel := func(inline bool) int {
		opt := core.PolarisOptions()
		opt.Inline = inline
		res, err := core.Compile(p.Parse(), opt)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		n := 0
		for _, lr := range res.Loops {
			if lr.Unit == "CMHOG" && lr.Index == "K" && lr.Depth == 1 && lr.Parallel {
				n++
			}
		}
		return n
	}
	// Three K sweeps under STEP: plane (via CALL), density update,
	// mass reduction. All three parallel once inlined; the CALL blocks
	// the plane sweep otherwise.
	if got := kParallel(true); got != 3 {
		t.Errorf("inlined cmhog parallel K sweeps = %d, want 3", got)
	}
	if got := kParallel(false); got != 2 {
		t.Errorf("un-inlined cmhog parallel K sweeps = %d, want 2 (CALL blocks the plane sweep)", got)
	}
}
