package suite

import (
	"context"
	"fmt"
	"math"
	"slices"

	"polaris/internal/core"
	"polaris/internal/interp"
	"polaris/internal/ir"
	"polaris/internal/machine"
	"polaris/internal/obsv"
	"polaris/internal/pfa"
	"polaris/internal/store"
)

// Runner runs the paper's evaluation sweep (Table 1, Figures 6/7, the
// ablation grid) across a bounded worker pool. Every job compiles what
// it measures; only serial runs, the baseline every speedup divides
// by, are memoized, keyed by program source. A zero Workers value uses
// one worker per CPU. A Runner is safe for concurrent use.
type Runner struct {
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// Observer, when set, receives per-pass spans and per-loop decision
	// records from every Polaris compilation and runtime metrics from
	// every Polaris execution, labeled by program name. The observer
	// (and any trace writer attached to it) is shared by all pool
	// workers; its internal locking keeps the combined record stream
	// safe and totally ordered under -j N concurrency.
	Observer *obsv.Observer

	serial *store.Store[string, serialRun]
}

// serialRun is one program's serial (cycles, checksum).
type serialRun struct {
	cycles int64
	sum    float64
}

// NewRunner returns a Runner with an empty serial-run memo.
func NewRunner() *Runner {
	return &Runner{serial: store.New[string, serialRun](store.Limits{})}
}

// Configurations of a Point besides the Ablations() removals.
const (
	// Full is the whole Polaris pipeline.
	Full = "full"
	// PFA is the baseline compiler of Figure 7.
	PFA = "PFA"
)

// Point is one measured point of the paper's evaluation: one program
// compiled under one configuration and run on Procs simulated
// processors.
type Point struct {
	Program string
	// Config is Full, PFA, or the Name of the one Ablations() entry
	// removed from the full pipeline.
	Config       string
	Procs        int
	SerialCycles int64
	Cycles       int64
	// Coverage is the run's parallel-coverage fraction: the share of
	// serial-equivalent work executed inside DOALL regions and passing
	// speculative runs.
	Coverage float64
	// LRPDTime and LRPDBodyWork are the speculative loops' time and
	// serial-equivalent body work; LRPDPasses and LRPDFailures count
	// their PD-test outcomes (Figure 6).
	LRPDTime, LRPDBodyWork, LRPDPasses, LRPDFailures int64
}

// Speedup is the point's serial time over its parallel time.
func (pt Point) Speedup() float64 { return float64(pt.SerialCycles) / float64(pt.Cycles) }

// job is one (program, configuration) of the sweep and the processor
// counts it runs on. The configuration's Mod is nil for Full and PFA.
type job struct {
	prog   Program
	config AblationSpec
	procs  []int
}

// Sweep measures the paper's evaluation, fanning its jobs across the
// worker pool: TRACK and its all-failure twin under the full pipeline
// on 1..procs processors (Figure 6), then each configuration — Full,
// PFA, each Ablations() removal — over the suite on procs processors
// (Table 1, Figure 7, the ablation table). The points come back in
// that order, each job's by processor count.
func (r *Runner) Sweep(ctx context.Context, procs int) ([]Point, error) {
	counts := make([]int, procs)
	for i := range counts {
		counts[i] = i + 1
	}
	full := AblationSpec{Name: Full}
	jobs := []job{{Track(), full, counts}, {failingTrack, full, counts}}
	for _, c := range append([]AblationSpec{full, {Name: PFA}}, Ablations()...) {
		for _, p := range All() {
			jobs = append(jobs, job{p, c, []int{procs}})
		}
	}
	pts := make([][]Point, len(jobs))
	err := forEach(ctx, r.Workers, len(jobs), func(ctx context.Context, i int) (err error) {
		pts[i], err = r.measure(ctx, jobs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(pts...), nil
}

// measure compiles one job's program under its configuration, runs it
// on each of the job's processor counts, and checks each run's RESULT
// against the serial run's. The compiled program is the job's own; the
// interpreter only reads it, so its runs share it. A Polaris compile
// labels its provenance and run metrics with the program's name, a
// removal's with "<program>/-<technique>", so a trace holds one final
// verdict per label and loop.
func (r *Runner) measure(ctx context.Context, j job) ([]Point, error) {
	serial, serialSum, err := r.serialTime(ctx, j.prog)
	if err != nil {
		return nil, err
	}
	where := j.prog.Name + " " + j.config.Name
	model := machine.Default()
	var prog *ir.Program
	opt := core.PolarisOptions()
	opt.Observer = r.Observer
	opt.TraceLabel = j.prog.Name
	if j.config.Name == PFA {
		res, err := pfa.Compile(j.prog.Parse())
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", where, err)
		}
		prog, model = res.Result.Program, model.WithCodegenFactor(res.Factor)
	} else {
		if j.config.Mod != nil {
			opt.TraceLabel += "/-" + j.config.Name
			j.config.Mod(&opt)
		}
		res, err := core.CompileContext(ctx, j.prog.Parse(), opt)
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", where, err)
		}
		prog = res.Program
	}
	pts := make([]Point, len(j.procs))
	for i, procs := range j.procs {
		in := interp.New(prog, model.WithProcessors(procs))
		in.Parallel = true
		// Reversed iteration order: an unsound parallelization surfaces
		// as a RESULT that differs from the serial run's.
		in.Validate = true
		if err := in.RunContext(ctx); err != nil {
			return nil, fmt.Errorf("%s p=%d: run: %w", where, procs, err)
		}
		// Reductions reassociate in reverse order: allow tiny float
		// drift relative to magnitude.
		if sum, _ := in.Probe("OUT", "RESULT"); math.Abs(sum-serialSum) > 1e-9*(1+math.Abs(serialSum)) {
			return nil, fmt.Errorf("%s p=%d: RESULT %v differs from the serial run's %v", where, procs, sum, serialSum)
		}
		if j.config.Name != PFA {
			r.Observer.Run(in.Metrics(opt.TraceLabel))
		}
		pts[i] = Point{
			Program: j.prog.Name, Config: j.config.Name, Procs: procs,
			SerialCycles: serial, Cycles: in.Time(), Coverage: in.Coverage(),
			LRPDTime: in.LRPDTime, LRPDBodyWork: in.LRPDBodyWork,
			LRPDPasses: in.LRPDPasses, LRPDFailures: in.LRPDFailures,
		}
	}
	return pts, nil
}

// serialTime runs a program serially, memoized by source: each
// program runs once per Runner however many points divide by its time.
func (r *Runner) serialTime(ctx context.Context, p Program) (int64, float64, error) {
	s, _, err := r.serial.Do(ctx, p.Source, func(ctx context.Context) (serialRun, int64, error) {
		in := interp.New(p.Parse(), machine.Default())
		if err := in.RunContext(ctx); err != nil {
			return serialRun{}, 0, fmt.Errorf("%s: serial run: %w", p.Name, err)
		}
		sum, _ := in.Probe("OUT", "RESULT")
		return serialRun{cycles: in.Time(), sum: sum}, 64, nil
	})
	return s.cycles, s.sum, err
}

// failingTrack is TRACK with every invocation carrying a dependence
// (the all-failure case of the potential-slowdown plot).
var failingTrack = Program{
	Name:       "track-fail",
	Origin:     "PERFECT",
	Techniques: "LRPD failure path",
	Source: `
      PROGRAM TRACKF
      REAL RESULT
      COMMON /OUT/ RESULT
      INTEGER NP, NINV
      PARAMETER (NP=1500, NINV=20)
      REAL X(NP), F(NP)
      INTEGER IND(NP)
      INTEGER I, INV
      DO I = 1, NP
        X(I) = 0.5 + 0.001 * I
        F(I) = 0.01 * I
      END DO
      DO INV = 1, NINV
        DO I = 1, NP
          IND(I) = MOD((I-1) * 7, NP) + 1
        END DO
        IND(2) = IND(1)
        DO I = 1, NP
          X(IND(I)) = X(IND(I)) * 0.995 + F(I) * 0.01
        END DO
      END DO
      RESULT = 0.0
      DO I = 1, NP
        RESULT = RESULT + X(I)
      END DO
      END
`,
}
