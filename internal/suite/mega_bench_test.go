package suite

import (
	"context"
	"runtime"
	"testing"

	"polaris/internal/core"
	"polaris/internal/fuzzgen"
	"polaris/internal/parser"
)

// BenchmarkMegaCompile is the standing megaprogram scaling benchmark:
// one cold compile of each corpus entry (10k/50k/100k lines, hundreds
// to thousands of units) under the full technique set. The ns/line
// metric is the scaling signal: if the compiler goes superlinear in
// program size, the 100k row's ns/line pulls away from the 10k row's.
func BenchmarkMegaCompile(b *testing.B) {
	for _, spec := range fuzzgen.MegaCorpus() {
		b.Run(spec.Name, func(b *testing.B) {
			benchMega(b, spec)
		})
	}
}

// BenchmarkMegaIncremental measures the incremental recompile: each
// corpus entry is compiled once to warm a per-unit memo, then every
// iteration applies a fresh one-unit edit and recompiles against the
// warm memo — only the edited unit runs the pipeline, the rest are memo hits.
// Compare against the same entry's BenchmarkMegaCompile row for the
// edit-one-unit speedup.
func BenchmarkMegaIncremental(b *testing.B) {
	for _, spec := range fuzzgen.MegaCorpus() {
		b.Run(spec.Name, func(b *testing.B) {
			mp := spec.Generate()
			memo := core.NewUnitMemo(core.MemoLimits{})
			warm := core.PolarisOptions()
			warm.UnitMemo = memo
			warm.TrustedInput = true
			base, err := parser.ParseProgram(mp.Source)
			if err != nil {
				b.Fatalf("%s: parse: %v", spec.Name, err)
			}
			ctx := context.Background()
			if _, err := core.CompileContext(ctx, base, warm); err != nil {
				b.Fatalf("%s: warm compile: %v", spec.Name, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				editedSrc, unit := fuzzgen.EditOneUnit(mp.Source, i+1, i+1)
				if unit == "" {
					b.Fatalf("%s: EditOneUnit found no unit", spec.Name)
				}
				prog, err := parser.ParseProgram(editedSrc)
				if err != nil {
					b.Fatalf("%s: parse edit: %v", spec.Name, err)
				}
				opt := core.PolarisOptions()
				opt.UnitMemo = memo
				opt.TrustedInput = true // prog is parsed fresh per iteration
				// Collect the setup garbage (a fresh ~50k-line parse per
				// iteration) while the timer is stopped, so the timed
				// region pays only for its own allocation, not the
				// setup's deferred GC debt.
				runtime.GC()
				b.StartTimer()
				res, err := core.CompileContext(ctx, prog, opt)
				b.StopTimer()
				if err != nil {
					b.Fatalf("%s: %v", spec.Name, err)
				}
				if res.UnitsRecompiled != 1 {
					b.Fatalf("%s: recompiled %d units, want 1", spec.Name, res.UnitsRecompiled)
				}
			}
		})
	}
}

func benchMega(b *testing.B, spec fuzzgen.MegaSpec) {
	mp := spec.Generate()
	prog, err := parser.ParseProgram(mp.Source)
	if err != nil {
		b.Fatalf("%s: parse: %v", spec.Name, err)
	}
	opt := core.PolarisOptions()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// CompileContext clones the program; iterations are independent.
		if _, err := core.CompileContext(ctx, prog, opt); err != nil {
			b.Fatalf("%s: %v", spec.Name, err)
		}
	}
	b.StopTimer()
	perLine := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(mp.Lines)
	b.ReportMetric(perLine, "ns/line")
}
