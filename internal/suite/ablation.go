package suite

import (
	"context"
	"fmt"
	"math"
	"sort"

	"polaris/internal/core"
	"polaris/internal/interp"
	"polaris/internal/machine"
)

// AblationRow reports suite-wide impact of removing one technique from
// the full pipeline: the geometric-mean speedup across all 16 programs
// and how many programs lose more than 20% of their full-pipeline
// speedup.
type AblationRow struct {
	Technique string
	// GeoMean is the geometric-mean 8-processor speedup with the
	// technique removed.
	GeoMean float64
	// FullGeoMean is the full pipeline's geometric mean (same for all
	// rows, for reference).
	FullGeoMean float64
	// Hurt counts programs losing > 20% of their full speedup.
	Hurt int
	// HurtPrograms names them.
	HurtPrograms []string
}

// AblationSpec is one single-technique removal from the full pipeline:
// Mod flips the technique off in a full-pipeline Options value.
type AblationSpec struct {
	Name string
	Mod  func(*core.Options)
}

// Ablations enumerates the single-technique removals — the rows of the
// paper's Table 2 grid. The differential oracle reuses this list so new
// ablations are automatically soundness-checked.
func Ablations() []AblationSpec {
	return []AblationSpec{
		{"inline expansion", func(o *core.Options) { o.Inline = false }},
		{"generalized induction", func(o *core.Options) { o.Induction = false; o.SimpleInduction = true }},
		{"reductions", func(o *core.Options) { o.Reductions = false }},
		{"histogram reductions", func(o *core.Options) { o.HistogramReduction = false }},
		{"array privatization", func(o *core.Options) { o.ArrayPrivatization = false }},
		{"range test", func(o *core.Options) { o.RangeTest = false }},
		{"loop permutation", func(o *core.Options) { o.Permutation = false }},
		{"run-time (LRPD) test", func(o *core.Options) { o.LRPD = false }},
		{"strength reduction", func(o *core.Options) { o.StrengthReduction = false }},
	}
}

// Ablation measures each single-technique removal across the whole
// suite on the given processor count, fanning the full
// (configuration x program) grid across the worker pool. The full
// pipeline's provenance is labeled by program name and each removal's
// by "<program>/-<technique>", so a trace holds one final verdict per
// label and loop.
func (r *Runner) Ablation(ctx context.Context, procs int) ([]AblationRow, error) {
	abls := Ablations()
	// Configuration 0 is the unmodified full pipeline; 1..n the
	// single-technique removals.
	configs := 1 + len(abls)
	progs := All()
	// Grid job (ci, pi) writes results[ci*len(progs)+pi]: a flat slice
	// keeps the concurrent writers index-disjoint.
	results := make([]float64, configs*len(progs))
	err := forEach(ctx, r.Workers, len(results), func(ctx context.Context, i int) error {
		ci, pi := i/len(progs), i%len(progs)
		p := progs[pi]
		serial, _, err := r.serialTime(ctx, p)
		if err != nil {
			return err
		}
		opt := r.polarisOptions(p.Name)
		if ci > 0 {
			opt.TraceLabel = p.Name + "/-" + abls[ci-1].Name
			abls[ci-1].Mod(&opt)
		}
		compiled, err := core.CompileContext(ctx, p.Parse(), opt)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		in := interp.New(compiled.Program, machine.Default().WithProcessors(procs))
		in.Parallel = true
		if err := in.RunContext(ctx); err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		results[i] = float64(serial) / float64(in.Time())
		return nil
	})
	if err != nil {
		return nil, err
	}
	speeds := make([]map[string]float64, configs)
	for ci := range speeds {
		speeds[ci] = make(map[string]float64, len(progs))
		for pi, p := range progs {
			speeds[ci][p.Name] = results[ci*len(progs)+pi]
		}
	}
	full := speeds[0]
	fullGeo := geoMean(full)
	var rows []AblationRow
	for i, a := range abls {
		row := AblationRow{Technique: a.Name, GeoMean: geoMean(speeds[i+1]), FullGeoMean: fullGeo}
		for _, p := range progs {
			if speeds[i+1][p.Name] < full[p.Name]*0.8 {
				row.Hurt++
				row.HurtPrograms = append(row.HurtPrograms, p.Name)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Ablation measures each single-technique removal across the whole
// suite on the given processor count.
func Ablation(procs int) ([]AblationRow, error) {
	return NewRunner().Ablation(context.Background(), procs)
}

func geoMean(m map[string]float64) float64 {
	// Multiply in sorted key order: float multiplication is not
	// associative at the ulp level, so map-iteration order would make
	// the mean differ between otherwise identical runs.
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	prod := 1.0
	for _, k := range names {
		prod *= m[k]
	}
	if len(names) == 0 {
		return 0
	}
	return math.Pow(prod, 1.0/float64(len(names)))
}
