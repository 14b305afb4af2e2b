package suite

import (
	"context"
	"fmt"

	"polaris/internal/core"
	"polaris/internal/interp"
	"polaris/internal/ir"
	"polaris/internal/machine"
	"polaris/internal/obsv"
	"polaris/internal/pfa"
	"polaris/internal/store"
)

// Runner executes suite workloads (Table 1, Figures 6/7, the ablation
// grid) across a bounded worker pool. Every job compiles what it
// measures; only serial runs, the baseline every speedup divides by,
// are memoized, keyed by program source. A zero Workers value uses one
// worker per CPU. A Runner is safe for concurrent use.
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

func (r *Runner) polarisOptions(label string) core.Options {
	opt := core.PolarisOptions()
	opt.TraceLabel = label
	opt.Observer = r.Observer
	return opt
}

// Table1Row is one row of the paper's Table 1 for the synthetic suite:
// origin, source lines, and serial execution time (simulated cycles
// here instead of seconds on the SGI Challenge).
type Table1Row struct {
	Name         string
	Origin       string
	Lines        int
	SerialCycles int64
	// Checksum is the program's COMMON /OUT/ RESULT value, used by
	// tests to pin down semantic equivalence across configurations.
	Checksum float64
}

// Table1 runs every program serially (concurrently across the worker
// pool) and reports the rows in suite order.
func (r *Runner) Table1(ctx context.Context) ([]Table1Row, error) {
	progs := All()
	rows := make([]Table1Row, len(progs))
	err := forEach(ctx, r.Workers, len(progs), func(ctx context.Context, i int) error {
		p := progs[i]
		cycles, sum, err := r.serialTime(ctx, p)
		if err != nil {
			return err
		}
		rows[i] = Table1Row{
			Name:         p.Name,
			Origin:       p.Origin,
			Lines:        p.Lines(),
			SerialCycles: cycles,
			Checksum:     sum,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig7Row is one bar pair of the paper's Figure 7: speedup on the
// simulated 8-processor machine under the full Polaris pipeline versus
// the PFA baseline.
type Fig7Row struct {
	Name    string
	Polaris float64
	PFA     float64
	// Coverage is the Polaris run's parallel-coverage fraction: the
	// share of serial-equivalent work executed inside DOALL regions and
	// passing speculative runs.
	Coverage float64
	// PolarisChecksum / PFAChecksum verify semantic equivalence with
	// the serial run.
	PolarisChecksum float64
	PFAChecksum     float64
	SerialChecksum  float64
}

// Figure7 regenerates the Polaris-vs-PFA speedup comparison on the
// given processor count (8 in the paper), fanning the programs across
// the worker pool.
func (r *Runner) Figure7(ctx context.Context, procs int) ([]Fig7Row, error) {
	progs := All()
	rows := make([]Fig7Row, len(progs))
	err := forEach(ctx, r.Workers, len(progs), func(ctx context.Context, i int) error {
		p := progs[i]
		serial, serialSum, err := r.serialTime(ctx, p)
		if err != nil {
			return err
		}
		pol, err := r.runOne(ctx, p, procs, true, true)
		if err != nil {
			return err
		}
		pfa, err := r.runOne(ctx, p, procs, false, true)
		if err != nil {
			return err
		}
		rows[i] = Fig7Row{
			Name:            p.Name,
			Polaris:         float64(serial) / float64(pol.cycles),
			PFA:             float64(serial) / float64(pfa.cycles),
			Coverage:        pol.coverage,
			PolarisChecksum: pol.sum,
			PFAChecksum:     pfa.sum,
			SerialChecksum:  serialSum,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// serialTime runs a program serially, memoized by source: each
// program runs once per Runner however many jobs divide by its time.
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

// runOutcome is one execution's measurements.
type runOutcome struct {
	cycles   int64
	sum      float64
	coverage float64
}

// runOne compiles one program under one compiler configuration and
// executes it on procs processors. The compiled program is the job's
// own, so concurrent runs never share IR. Polaris runs report their
// metrics to the Runner's Observer (labeled by program name).
func (r *Runner) runOne(ctx context.Context, p Program, procs int, polaris, validate bool) (runOutcome, error) {
	model := machine.Default().WithProcessors(procs)
	var prog *ir.Program
	if polaris {
		res, err := core.CompileContext(ctx, p.Parse(), r.polarisOptions(p.Name))
		if err != nil {
			return runOutcome{}, fmt.Errorf("%s: compile: %w", p.Name, err)
		}
		prog = res.Program
	} else {
		res, err := pfa.Compile(p.Parse())
		if err != nil {
			return runOutcome{}, fmt.Errorf("%s: compile: %w", p.Name, err)
		}
		prog = res.Result.Program
		model = model.WithCodegenFactor(res.Factor)
	}
	in := interp.New(prog, model)
	in.Parallel = true
	// Reversed iteration order: any unsound parallelization surfaces
	// as a checksum mismatch in the callers' comparisons.
	in.Validate = validate
	if err := in.RunContext(ctx); err != nil {
		return runOutcome{}, fmt.Errorf("%s: run: %w", p.Name, err)
	}
	if polaris {
		r.Observer.Run(in.Metrics(p.Name))
	}
	sum, _ := in.Probe("OUT", "RESULT")
	return runOutcome{cycles: in.Time(), sum: sum, coverage: in.Coverage()}, nil
}

// Fig6Row is one point of the paper's Figure 6 pair, both measured at
// the loop level as the paper plots them: speedup of the TRACK NLFILT
// loop under speculative LRPD execution (including the 10% failed
// invocations re-executed sequentially), and the potential slowdown
// ratio (T_seq + T_pdt)/T_seq when every invocation fails.
type Fig6Row struct {
	Procs    int
	Speedup  float64
	Slowdown float64
	Passes   int64
	Failures int64
}

// Figure6 regenerates both TRACK plots for processor counts 1..maxP:
// TRACK and its all-failure variant compile once, then one pool worker
// per processor count runs a clone of each.
func (r *Runner) Figure6(ctx context.Context, maxP int) ([]Fig6Row, error) {
	p := Track()
	_, serialSum, err := r.serialTime(ctx, p)
	if err != nil {
		return nil, err
	}
	compiled, err := core.CompileContext(ctx, p.Parse(), r.polarisOptions(p.Name))
	if err != nil {
		return nil, err
	}
	slowCompiled, err := core.CompileContext(ctx, failingTrack.Parse(), r.polarisOptions(failingTrack.Name))
	if err != nil {
		return nil, err
	}
	rows := make([]Fig6Row, maxP)
	err = forEach(ctx, r.Workers, maxP, func(ctx context.Context, i int) error {
		procs := i + 1
		in := interp.New(compiled.Program.Clone(), machine.Default().WithProcessors(procs))
		in.Parallel = true
		if err := in.RunContext(ctx); err != nil {
			return err
		}
		sum, _ := in.Probe("OUT", "RESULT")
		if sum != serialSum {
			return fmt.Errorf("track checksum mismatch: %v vs %v", sum, serialSum)
		}
		if in.LRPDTime == 0 || in.LRPDBodyWork == 0 {
			return fmt.Errorf("track: no speculative executions recorded")
		}
		row := Fig6Row{
			Procs:    procs,
			Speedup:  float64(in.LRPDBodyWork) / float64(in.LRPDTime),
			Passes:   in.LRPDPasses,
			Failures: in.LRPDFailures,
		}
		// Potential slowdown: a variant whose invocations all fail —
		// (T_seq + T_pdt) / T_seq at the loop level.
		slowIn := interp.New(slowCompiled.Program.Clone(), machine.Default().WithProcessors(procs))
		slowIn.Parallel = true
		if err := slowIn.RunContext(ctx); err != nil {
			return err
		}
		if slowIn.LRPDFailures == 0 || slowIn.LRPDBodyWork == 0 {
			return fmt.Errorf("failing track variant did not fail speculation")
		}
		row.Slowdown = float64(slowIn.LRPDTime) / float64(slowIn.LRPDBodyWork)
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
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
