package polaris_test

// Tests for the context-aware functional-options API: Compile(ctx,
// prog, ...Option), its defaults, its instrumentation surface and
// cancellation. TestSuite is the end-to-end gate CI runs with -count=1.

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"polaris"
	"polaris/internal/obsv"
	"polaris/internal/parser"
	"polaris/internal/suite"
)

const apiSrc = `
      PROGRAM DEMO
      REAL RESULT
      COMMON /OUT/ RESULT
      REAL A(100)
      INTEGER I
      DO I = 1, 100
        A(I) = 1.5 * I
      END DO
      RESULT = 0.0
      DO I = 1, 100
        RESULT = RESULT + A(I)
      END DO
      END
`

// TestCompileDefaultMatchesParallelize: Compile with no options is the
// full Polaris pipeline (what the deleted Parallelize wrapper ran) —
// the same verdicts as naming FullTechniques explicitly — and carries
// its report.
func TestCompileDefaultMatchesParallelize(t *testing.T) {
	prog, err := polaris.Parse(apiSrc)
	if err != nil {
		t.Fatal(err)
	}
	viaDefault, err := polaris.Compile(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	viaFull, err := polaris.Compile(context.Background(), prog, polaris.WithTechniques(polaris.FullTechniques()))
	if err != nil {
		t.Fatal(err)
	}
	if viaDefault.Summary() != viaFull.Summary() {
		t.Errorf("Compile's default and FullTechniques disagree:\n%s\nvs\n%s", viaDefault.Summary(), viaFull.Summary())
	}
	if viaDefault.Report == nil {
		t.Error("Compile result has no pipeline report")
	}
}

func TestCompileWithTechniquesAndBaseline(t *testing.T) {
	prog, err := polaris.Parse(apiSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Empty technique set: nothing parallelizes beyond what no-op
	// analysis grants; the call must still succeed.
	none, err := polaris.Compile(context.Background(), prog, polaris.WithTechniques(polaris.Techniques{}))
	if err != nil {
		t.Fatal(err)
	}
	full, err := polaris.Compile(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if none.ParallelLoops() > full.ParallelLoops() {
		t.Errorf("empty techniques found more parallelism (%d) than full (%d)",
			none.ParallelLoops(), full.ParallelLoops())
	}
	base, err := polaris.Compile(context.Background(), prog, polaris.WithBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if base.Report != nil {
		t.Error("baseline compilation should not carry a Polaris pipeline report")
	}
	// Technique selection does not apply to the baseline compiler.
	narrowBase, err := polaris.Compile(context.Background(), prog, polaris.WithBaseline(), polaris.WithTechniques(polaris.Techniques{}))
	if err != nil {
		t.Fatal(err)
	}
	if base.CodegenFactor != narrowBase.CodegenFactor || base.Summary() != narrowBase.Summary() {
		t.Errorf("baseline under a technique set (factor %v) differs from the plain baseline (factor %v)",
			narrowBase.CodegenFactor, base.CodegenFactor)
	}
}

func TestCompileWithTraceAndStats(t *testing.T) {
	prog, err := polaris.Parse(apiSrc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	var stats polaris.Stats
	obs := polaris.NewObserver()
	obs.StreamTo(&buf)
	res, err := polaris.Compile(context.Background(), prog,
		polaris.WithObserver(obs), polaris.WithTraceLabel("demo"), polaris.WithStats(&stats))
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.TraceErr(); err != nil {
		t.Fatalf("TraceErr: %v", err)
	}
	if stats.PairsTested == 0 {
		t.Error("WithStats collected no dependence-test counts")
	}
	// One span envelope per report entry, in order, labels applied.
	envs, err := obsv.ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	n := 0
	for _, e := range envs {
		if e.Type != obsv.TypeSpan {
			continue
		}
		if n >= len(res.Report.Events) {
			t.Fatalf("trace has more spans than the report's %d events", len(res.Report.Events))
		}
		want := res.Report.Events[n]
		if e.Span.Seq != n || e.Span.Label != "demo" || e.Span.Pass != want.Pass ||
			!reflect.DeepEqual(e.Span.Mutations, want.Mutations) {
			t.Errorf("trace span %d = %+v, want seq %d label demo and %+v", n, *e.Span, n, want)
		}
		n++
	}
	if n != len(res.Report.Events) {
		t.Errorf("trace spans %d != report events %d", n, len(res.Report.Events))
	}
	if res.Report.Label != "demo" {
		t.Errorf("report label = %q", res.Report.Label)
	}
}

func TestCompileCancelled(t *testing.T) {
	prog, err := polaris.Parse(apiSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := polaris.Compile(ctx, prog); !errors.Is(err, context.Canceled) {
		t.Errorf("Compile: want context.Canceled, got %v", err)
	}
	if _, err := polaris.ExecuteProgramContext(ctx, prog, polaris.ExecOptions{Serial: true}); !errors.Is(err, context.Canceled) {
		t.Errorf("ExecuteProgramContext: want context.Canceled, got %v", err)
	}
}

func TestWithProcessorsDefault(t *testing.T) {
	prog, err := polaris.Parse(apiSrc)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := polaris.Compile(context.Background(), prog, polaris.WithProcessors(2))
	if err != nil {
		t.Fatal(err)
	}
	res8, err := polaris.Compile(context.Background(), prog, polaris.WithProcessors(8))
	if err != nil {
		t.Fatal(err)
	}
	run2, err := polaris.Execute(res2, polaris.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	run8, err := polaris.Execute(res8, polaris.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if run8.Cycles >= run2.Cycles {
		t.Errorf("8-processor default (%d cycles) not faster than 2-processor (%d)",
			run8.Cycles, run2.Cycles)
	}
	// An explicit ExecOptions.Processors still wins.
	override, err := polaris.Execute(res2, polaris.ExecOptions{Processors: 8})
	if err != nil {
		t.Fatal(err)
	}
	if override.Cycles != run8.Cycles {
		t.Errorf("explicit Processors=8 gave %d cycles, want %d", override.Cycles, run8.Cycles)
	}
}

func TestParseErrorTyped(t *testing.T) {
	_, err := polaris.Parse("      PROGRAM X\n      DO I = , 10\n      END DO\n      END\n")
	if err == nil {
		t.Fatal("no error for malformed DO")
	}
	var perr *parser.ParseError
	if !errors.As(err, &perr) {
		t.Fatalf("error %T is not *parser.ParseError: %v", err, err)
	}
	if perr.Line != 2 {
		t.Errorf("ParseError.Line = %d, want 2", perr.Line)
	}
	if perr.Col <= 0 {
		t.Errorf("ParseError.Col = %d, want > 0", perr.Col)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error text %q does not locate the failure", err.Error())
	}
}

// TestSuite is the end-to-end gate (CI runs it with -count=1): the
// paper's evaluation swept concurrently through the Runner, whose
// point runner fails on any run whose checksum leaves the serial
// run's, and pipeline reports present for every program.
func TestSuite(t *testing.T) {
	pts, err := suite.NewRunner().Sweep(context.Background(), 8)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	pfa := 0
	for _, pt := range pts {
		if pt.Config == suite.PFA {
			pfa++
		}
		if pt.Speedup() <= 0 {
			t.Errorf("%s %s p=%d: non-positive speedup %v", pt.Program, pt.Config, pt.Procs, pt.Speedup())
		}
	}
	if pfa != 16 {
		t.Fatalf("PFA points = %d, want 16", pfa)
	}
	// Every suite program also compiles through the public API with a
	// report.
	for _, p := range suite.All() {
		prog, err := polaris.Parse(p.Source)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		res, err := polaris.Compile(context.Background(), prog, polaris.WithTraceLabel(p.Name))
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if res.Report == nil || len(res.Report.Events) == 0 {
			t.Errorf("%s: missing pipeline report", p.Name)
		}
	}
}
