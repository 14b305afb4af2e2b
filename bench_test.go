// Benchmark harness regenerating every table and figure of the paper's
// evaluation section (see DESIGN.md's experiment index and
// EXPERIMENTS.md for paper-vs-measured):
//
//	E1  BenchmarkTable1/*            Table 1 serial times
//	E2  BenchmarkSweep               Figure 7 Polaris-vs-PFA speedups,
//	E3  (fig7_p8_*, fig6_p*_speedup, Figure 6 (top and bottom) and the
//	E4   fig6_p*_slowdown,           ablation table (E12)
//	E12  ablation_p8_geomean_*)
//	E10 BenchmarkDirectionVectors/*  range test O(n^2) vs Banerjee O(3^n)
//	E11 BenchmarkPDTestScaling/*     PD test O(a/p + log p)
//
// Speedups and counts are attached as benchmark metrics
// (fig7_p8_speedup_<program>, fig6_p4_slowdown, dv_tested, ...).
package polaris_test

import (
	"context"
	"fmt"
	"testing"

	"polaris/internal/core"
	"polaris/internal/deps"
	"polaris/internal/interp"
	"polaris/internal/ir"
	"polaris/internal/machine"
	"polaris/internal/parser"
	"polaris/internal/rng"
	"polaris/internal/rt"
	"polaris/internal/suite"
	"polaris/internal/symbolic"
)

// E1 — Table 1: serial execution of every suite program.
func BenchmarkTable1(b *testing.B) {
	for _, p := range suite.All() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				t, err := serialCycles(p)
				if err != nil {
					b.Fatal(err)
				}
				cycles = t
			}
			b.ReportMetric(float64(cycles), "sim_cycles")
			b.ReportMetric(float64(p.Lines()), "loc")
		})
	}
}

// E2–E4, E12 — the paper's evaluation as one sweep at p = 8: Figure
// 7's speedups under Polaris and PFA per program, Figure 6's TRACK
// loop-level speedup and potential slowdown at p = 1, 2, 4, 8, and the
// ablation table's geometric means, each metric named by its figure
// and p.
func BenchmarkSweep(b *testing.B) {
	var pts []suite.Point
	for i := 0; i < b.N; i++ {
		var err error
		if pts, err = suite.NewRunner().Sweep(context.Background(), 8); err != nil {
			b.Fatal(err)
		}
	}
	byConfig := map[string][]suite.Point{}
	for _, pt := range pts {
		pow2 := pt.Procs&(pt.Procs-1) == 0
		switch {
		case pt.Program == "track":
			if pow2 {
				b.ReportMetric(float64(pt.LRPDBodyWork)/float64(pt.LRPDTime), fmt.Sprintf("fig6_p%d_speedup", pt.Procs))
			}
		case pt.Program == "track-fail":
			if pow2 {
				b.ReportMetric(float64(pt.LRPDTime)/float64(pt.LRPDBodyWork), fmt.Sprintf("fig6_p%d_slowdown", pt.Procs))
			}
		case pt.Config == suite.PFA:
			b.ReportMetric(pt.Speedup(), "fig7_p8_pfa_speedup_"+pt.Program)
		default:
			if pt.Config == suite.Full {
				b.ReportMetric(pt.Speedup(), "fig7_p8_speedup_"+pt.Program)
			}
			byConfig[pt.Config] = append(byConfig[pt.Config], pt)
		}
	}
	for config, ps := range byConfig {
		b.ReportMetric(suite.GeoMean(ps), "ablation_p8_geomean_"+sanitize(config))
	}
}

// E10 — Section 3.3.1's complexity claim: exhaustive Banerjee direction
// vectors grow as 3^n with nest depth while the range test's work is
// O(n^2). The benchmark measures both the counted direction vectors and
// the wall time of each test on the same nest.
func BenchmarkDirectionVectors(b *testing.B) {
	nestSrc := func(depth int) string {
		src := "      PROGRAM P\n      REAL A(-100000:100000)\n"
		sub := ""
		for i := 0; i < depth; i++ {
			v := fmt.Sprintf("I%d", i)
			src += fmt.Sprintf("      DO %s = 1, 4\n", v)
			if sub != "" {
				sub += "+"
			}
			sub += fmt.Sprintf("%d*%s", i+1, v)
		}
		src += fmt.Sprintf("      A(%s) = A(%s) + 1.0\n", sub, sub)
		for i := 0; i < depth; i++ {
			src += "      END DO\n"
		}
		src += "      END\n"
		return src
	}
	for depth := 1; depth <= 6; depth++ {
		depth := depth
		b.Run(fmt.Sprintf("banerjee/depth%d", depth), func(b *testing.B) {
			prog := parser.MustParse(nestSrc(depth))
			u := prog.Main()
			ra := rng.New(u, symbolic.NewLeaves())
			tester := deps.NewTester(u, ra)
			loops := ir.Loops(u.Body)
			sub := loops[len(loops)-1].Body.Stmts[0].(*ir.AssignStmt).LHS.(*ir.ArrayRef).Subs[0]
			conv := ra.Conv(sub)
			indices := make([]string, len(loops))
			for i, d := range loops {
				indices[i] = d.Index
			}
			lf, ok := deps.ExtractLinear(conv.E, indices)
			if !ok {
				b.Fatal("subscript not linear")
			}
			tested := 0
			for i := 0; i < b.N; i++ {
				_, tested = tester.BanerjeeAllDVs(lf, lf, loops)
			}
			b.ReportMetric(float64(tested), "dv_tested")
		})
		b.Run(fmt.Sprintf("rangetest/depth%d", depth), func(b *testing.B) {
			prog := parser.MustParse(nestSrc(depth))
			u := prog.Main()
			ra := rng.New(u, symbolic.NewLeaves())
			tester := deps.NewTester(u, ra)
			outer := ir.Loops(u.Body)[0]
			stats := &deps.Stats{}
			for i := 0; i < b.N; i++ {
				*stats = deps.Stats{}
				tester.AnalyzeLoop(outer, deps.Config{Stats: stats})
			}
			b.ReportMetric(float64(stats.RangeTests), "range_tests")
		})
	}
}

// E11 — Section 3.5.2's complexity claim: the PD test's analysis phase
// is O(a/p + log p). The benchmark exercises marking+analysis over
// growing access counts and reports the modelled analysis cycles per
// processor count.
func BenchmarkPDTestScaling(b *testing.B) {
	model := machine.Default()
	for _, a := range []int{1 << 10, 1 << 14, 1 << 18} {
		a := a
		b.Run(fmt.Sprintf("a%d", a), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sh := rt.NewShadow(int64(a))
				for e := int64(0); e < int64(a); e++ {
					sh.MarkWrite(e, e%7+1)
					sh.MarkRead(e, e%7+1)
				}
				if !sh.PDTest() {
					b.Fatal("disjoint trace failed")
				}
			}
			for _, p := range []int{1, 8} {
				b.ReportMetric(float64(model.PDAnalysisCycles(int64(a), p)), fmt.Sprintf("analysis_cycles_p%d", p))
			}
		})
	}
}

// BenchmarkCompile measures whole-pipeline compile time over the suite
// (the paper's compile-time concern motivating the inliner's template
// split).
func BenchmarkCompile(b *testing.B) {
	for _, name := range []string{"trfd", "ocean", "bdna", "tomcatv"} {
		p, _ := suite.ByName(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := coreCompileFull(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ' || r == '-' || r == '(' || r == ')':
			out = append(out, '_')
		}
	}
	return string(out)
}

// BenchmarkReductionForms compares the paper's three reduction
// implementations (Section 3.2: blocked, private, expanded) on the
// histogram-heavy mdg program, reporting each form's speedup.
func BenchmarkReductionForms(b *testing.B) {
	p, _ := suite.ByName("mdg")
	for _, style := range []machine.ReductionStyle{
		machine.ReductionPrivate, machine.ReductionBlocked, machine.ReductionExpanded,
	} {
		style := style
		b.Run(style.String(), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				serial, err := serialCycles(p)
				if err != nil {
					b.Fatal(err)
				}
				compiled, err := coreCompileFull(p)
				if err != nil {
					b.Fatal(err)
				}
				in := interp.New(compiled.Program, machine.Default().WithReductions(style))
				in.Parallel = true
				if err := in.Run(); err != nil {
					b.Fatal(err)
				}
				speedup = float64(serial) / float64(in.Time())
			}
			b.ReportMetric(speedup, "speedup")
		})
	}
}

func coreCompileFull(p suite.Program) (*core.Result, error) {
	return core.Compile(p.Parse(), core.PolarisOptions())
}

// serialCycles runs p serially on the default machine and returns its
// simulated time.
func serialCycles(p suite.Program) (int64, error) {
	in := interp.New(p.Parse(), machine.Default())
	if err := in.Run(); err != nil {
		return 0, err
	}
	return in.Time(), nil
}
