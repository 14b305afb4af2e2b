package polaris_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"polaris"
)

const facadeSrc = `
      PROGRAM FACADE
      REAL RESULT
      COMMON /OUT/ RESULT
      INTEGER N
      PARAMETER (N=400)
      REAL A(N), B(N), S
      INTEGER I
      DO I = 1, N
        B(I) = 0.25 * I
      END DO
      S = 0.0
      DO I = 1, N
        A(I) = B(I) + 1.0
        S = S + A(I)
      END DO
      RESULT = S
      END
`

func TestParseAndSource(t *testing.T) {
	prog, err := polaris.Parse(facadeSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !strings.Contains(prog.Source(), "PROGRAM FACADE") {
		t.Errorf("Source round trip lost the program header")
	}
	if _, err := polaris.Parse("      GARBAGE\n"); err == nil {
		t.Errorf("Parse accepted garbage")
	}
}

func TestParallelizeAndExecute(t *testing.T) {
	prog, err := polaris.Parse(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := polaris.Compile(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.ParallelLoops() < 2 {
		t.Fatalf("parallel loops = %d:\n%s", res.ParallelLoops(), res.Summary())
	}
	var annotated strings.Builder
	if err := res.Emit(&annotated); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(annotated.String(), "C$OMP PARALLEL DO") {
		t.Errorf("annotated source missing directives")
	}

	serial, err := polaris.ExecuteProgram(prog, polaris.ExecOptions{Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := polaris.Execute(res, polaris.ExecOptions{Processors: 8, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if par.Cycles >= serial.Cycles {
		t.Errorf("no speedup: %d vs %d", par.Cycles, serial.Cycles)
	}
	sSum, ok1 := serial.Probe("OUT", "RESULT")
	pSum, ok2 := par.Probe("OUT", "RESULT")
	if !ok1 || !ok2 || math.Abs(sSum-pSum) > 1e-6*(1+math.Abs(sSum)) {
		t.Errorf("checksums differ: %v vs %v", sSum, pSum)
	}
}

func TestBaselineWeaker(t *testing.T) {
	// A program needing array privatization: the baseline must find
	// strictly fewer parallel loops.
	src := `
      PROGRAM P
      INTEGER N
      PARAMETER (N=60)
      REAL B(N,N), C(N,N), W(N)
      INTEGER I, J, K
      DO I = 1, N
        DO J = 1, N
          W(J) = B(J,I) * 2.0
        END DO
        DO K = 1, N
          C(K,I) = W(K) + 1.0
        END DO
      END DO
      END
`
	prog, err := polaris.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	full, err := polaris.Compile(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	base, err := polaris.Compile(context.Background(), prog, polaris.WithBaseline())
	if err != nil {
		t.Fatal(err)
	}
	outerParallel := func(r *polaris.Result) bool {
		for _, l := range r.Loops {
			if l.Index == "I" && l.Depth == 0 {
				return l.Parallel
			}
		}
		return false
	}
	if !outerParallel(full) {
		t.Errorf("Polaris failed the privatization loop:\n%s", full.Summary())
	}
	if outerParallel(base) {
		t.Errorf("baseline unexpectedly parallelized the outer loop")
	}
}

func TestTechniquesAblation(t *testing.T) {
	prog, err := polaris.Parse(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	none, err := polaris.Compile(context.Background(), prog, polaris.WithTechniques(polaris.Techniques{}))
	if err != nil {
		t.Fatal(err)
	}
	full, err := polaris.Compile(context.Background(), prog, polaris.WithTechniques(polaris.FullTechniques()))
	if err != nil {
		t.Fatal(err)
	}
	if none.ParallelLoops() > full.ParallelLoops() {
		t.Errorf("empty technique set found more loops (%d) than full (%d)",
			none.ParallelLoops(), full.ParallelLoops())
	}
}

func TestSpeedupHelper(t *testing.T) {
	s, err := polaris.Speedup(facadeSrc, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 1.0 {
		t.Errorf("Speedup = %.2f, want > 1", s)
	}
}

func TestConcurrentExecution(t *testing.T) {
	prog, err := polaris.Parse(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := polaris.Compile(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	run, err := polaris.Execute(res, polaris.ExecOptions{Processors: 4, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	sum, _ := run.Probe("OUT", "RESULT")
	serial, _ := polaris.ExecuteProgram(prog, polaris.ExecOptions{Serial: true})
	ref, _ := serial.Probe("OUT", "RESULT")
	if math.Abs(sum-ref) > 1e-6*(1+math.Abs(ref)) {
		t.Errorf("concurrent checksum %v != %v", sum, ref)
	}
	// The goroutines run the simulated machine's chunks, so the charge
	// is the simulated run's.
	sim, err := polaris.Execute(res, polaris.ExecOptions{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if run.ParallelLoopExecs != sim.ParallelLoopExecs || run.Cycles != sim.Cycles {
		t.Errorf("concurrent run: %d DOALL executions in %d cycles, simulated: %d in %d",
			run.ParallelLoopExecs, run.Cycles, sim.ParallelLoopExecs, sim.Cycles)
	}
}

func TestReductionFormOption(t *testing.T) {
	prog, err := polaris.Parse(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := polaris.Compile(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	var times []int64
	for _, form := range []string{"private", "blocked", "expanded"} {
		run, err := polaris.Execute(res, polaris.ExecOptions{Processors: 8, ReductionForm: form})
		if err != nil {
			t.Fatalf("%s: %v", form, err)
		}
		times = append(times, run.Cycles)
	}
	if times[0] == times[1] && times[1] == times[2] {
		t.Errorf("reduction forms indistinguishable: %v", times)
	}
	if _, err := polaris.Execute(res, polaris.ExecOptions{ReductionForm: "bogus"}); err == nil {
		t.Errorf("bogus reduction form accepted")
	}
}

func TestExecuteRuntimeErrorSurfaces(t *testing.T) {
	prog, err := polaris.Parse(`
      PROGRAM P
      REAL A(5)
      INTEGER I
      I = 99
      A(I) = 1.0
      END
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := polaris.ExecuteProgram(prog, polaris.ExecOptions{Serial: true}); err == nil {
		t.Errorf("out-of-bounds program executed without error")
	}
}
