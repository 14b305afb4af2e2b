package oracle_test

import (
	"fmt"
	"reflect"
	"testing"

	"polaris/internal/core"
	"polaris/internal/fuzzgen"
	"polaris/internal/interp"
	"polaris/internal/machine"
	"polaris/internal/oracle"
	"polaris/internal/parser"
	"polaris/internal/suite"
)

// TestDoallModesAgree holds the concurrent mode to the simulated one:
// the same chunks run on goroutines instead of one after another, so
// every counter the machine model produces (time, work, parallel work,
// DOALL executions, PD outcomes, the per-loop rows) must be equal under
// every reduction form and processor count. Final states must be
// bit-equal for fuzzgen programs, whose arithmetic is dyadic; suite
// programs sum REALs, which partial reductions reassociate, so they are
// held to 1e-9; so is TRACK, whose speculative loops run forward in
// both modes while its DOALLs' REAL partials reassociate. Seed 2391
// has two histogram reductions in one loop.
func TestDoallModesAgree(t *testing.T) {
	type program struct {
		label, src string
		tol        float64
	}
	var progs []program
	for _, p := range append(suite.All(), suite.Track()) {
		progs = append(progs, program{p.Name, p.Source, 1e-9})
	}
	seeds := []uint64{2391}
	for s := uint64(1); s <= 50; s++ {
		seeds = append(seeds, s)
	}
	for _, s := range seeds {
		progs = append(progs, program{fmt.Sprintf("fuzz-%d", s), fuzzgen.Generate(fuzzgen.Config{Seed: s}).Source, 0})
	}
	for _, p := range progs {
		parsed, err := parser.ParseProgram(p.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", p.label, err)
		}
		res, err := core.Compile(parsed, core.PolarisOptions())
		if err != nil {
			t.Fatalf("%s: compile: %v", p.label, err)
		}
		for _, form := range []machine.ReductionStyle{machine.ReductionPrivate, machine.ReductionBlocked, machine.ReductionExpanded} {
			for _, procs := range []int{1, 3, 8} {
				run := func(concurrent bool) *interp.Interp {
					in := interp.New(res.Program, machine.Default().WithProcessors(procs).WithReductions(form))
					in.Parallel = true
					in.Concurrent = concurrent
					if err := in.Run(); err != nil {
						t.Fatalf("%s %s p=%d concurrent=%v: %v", p.label, form, procs, concurrent, err)
					}
					return in
				}
				sim, conc := run(false), run(true)
				where := fmt.Sprintf("%s %s p=%d", p.label, form, procs)
				if sim.ParallelLoopExecs != conc.ParallelLoopExecs {
					t.Errorf("%s: ParallelLoopExecs concurrent %d, simulated %d", where, conc.ParallelLoopExecs, sim.ParallelLoopExecs)
				}
				if sm, cm := sim.Metrics(p.label), conc.Metrics(p.label); !reflect.DeepEqual(sm, cm) {
					t.Errorf("%s: metrics differ\nconcurrent %+v\n simulated %+v", where, cm, sm)
				}
				if d := oracle.Diff(oracle.State(sim.CommonState()), oracle.State(conc.CommonState()), p.tol); d != "" {
					t.Errorf("%s: final state: %s", where, d)
				}
			}
		}
	}
}
