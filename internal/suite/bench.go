package suite

import (
	"context"
	"math"
	"sort"

	"polaris/internal/obsv"
)

// BenchProgram is one program's entry in the machine-readable benchmark
// trajectory (`polaris-bench -json`).
type BenchProgram struct {
	Name         string `json:"name"`
	Origin       string `json:"origin"`
	Lines        int    `json:"lines"`
	SerialCycles int64  `json:"serial_cycles"`
	// PolarisSpeedup / PFASpeedup are the Figure 7 bars.
	PolarisSpeedup float64 `json:"polaris_speedup"`
	PFASpeedup     float64 `json:"pfa_speedup"`
	// ParallelCoverage is the fraction of the Polaris run's work
	// executed inside parallel regions.
	ParallelCoverage float64 `json:"parallel_coverage"`
}

// BenchReport is the whole-suite benchmark trajectory: one entry per
// program plus the aggregates the paper headlines. CI uploads it as a
// build artifact so speedups can be tracked across commits.
type BenchReport struct {
	// SchemaVersion tracks the report layout (shared with the trace
	// schema: majors are breaking, minors additive).
	SchemaVersion string `json:"schema_version"`
	// Processors is the simulated machine size the speedups refer to.
	Processors int `json:"processors"`
	// Programs holds one entry per suite program, in suite order.
	Programs []BenchProgram `json:"programs"`
	// PolarisGeoMean / PFAGeoMean are the geometric-mean speedups
	// across the suite.
	PolarisGeoMean float64 `json:"polaris_geomean"`
	PFAGeoMean     float64 `json:"pfa_geomean"`
	// MeanCoverage is the arithmetic-mean parallel-coverage fraction.
	MeanCoverage float64 `json:"mean_parallel_coverage"`
}

// Bench runs the suite on procs processors and assembles the
// machine-readable report. Serial runs come from the Runner's
// serial-run memo; the Polaris and PFA compilations and runs are
// Bench's own.
func (r *Runner) Bench(ctx context.Context, procs int) (*BenchReport, error) {
	t1, err := r.Table1(ctx)
	if err != nil {
		return nil, err
	}
	f7, err := r.Figure7(ctx, procs)
	if err != nil {
		return nil, err
	}
	rep := &BenchReport{SchemaVersion: obsv.SchemaVersion, Processors: procs}
	byName := map[string]Fig7Row{}
	for _, row := range f7 {
		byName[row.Name] = row
	}
	for _, row := range t1 {
		f := byName[row.Name]
		rep.Programs = append(rep.Programs, BenchProgram{
			Name:             row.Name,
			Origin:           row.Origin,
			Lines:            row.Lines,
			SerialCycles:     row.SerialCycles,
			PolarisSpeedup:   f.Polaris,
			PFASpeedup:       f.PFA,
			ParallelCoverage: f.Coverage,
		})
	}
	rep.PolarisGeoMean = benchGeoMean(rep.Programs, func(p BenchProgram) float64 { return p.PolarisSpeedup })
	rep.PFAGeoMean = benchGeoMean(rep.Programs, func(p BenchProgram) float64 { return p.PFASpeedup })
	total := 0.0
	for _, p := range rep.Programs {
		total += p.ParallelCoverage
	}
	if len(rep.Programs) > 0 {
		rep.MeanCoverage = total / float64(len(rep.Programs))
	}
	return rep, nil
}

// benchGeoMean multiplies in sorted name order for bit-stable output
// (float multiplication is not associative at the ulp level).
func benchGeoMean(ps []BenchProgram, f func(BenchProgram) float64) float64 {
	if len(ps) == 0 {
		return 0
	}
	sorted := append([]BenchProgram(nil), ps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	prod := 1.0
	for _, p := range sorted {
		prod *= f(p)
	}
	return math.Pow(prod, 1.0/float64(len(sorted)))
}
