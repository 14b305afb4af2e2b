package suite

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"polaris/internal/obsv"
)

// Paper renders one sweep's points as the paper's evaluation: Table 1,
// Figure 7, Figure 6 and the ablation table, as polaris-bench prints
// them.
func Paper(pts []Point) string {
	var b strings.Builder
	full, pfa := pick(pts, Full, ""), pick(pts, PFA, "")
	b.WriteString("Table 1: Benchmark codes studied (synthetic suite, simulated machine)\n")
	fmt.Fprintf(&b, "%-10s %-8s %6s %14s\n", "Program", "Origin", "Lines", "Ser. cycles")
	for _, pt := range full {
		p, _ := ByName(pt.Program)
		fmt.Fprintf(&b, "%-10s %-8s %6d %14d\n", strings.ToUpper(p.Name), p.Origin, p.Lines(), pt.SerialCycles)
	}

	fmt.Fprintf(&b, "\nFigure 7: Speedup on %d simulated processors — Polaris vs PFA baseline\n", full[0].Procs)
	fmt.Fprintf(&b, "%-10s %8s %8s %6s   %s\n", "Program", "Polaris", "PFA", "Cov%", "")
	bar := func(v float64, ch string) string { return strings.Repeat(ch, max(int(v*2+0.5), 0)) }
	for i, pt := range full {
		pol, f := pt.Speedup(), pfa[i].Speedup()
		fmt.Fprintf(&b, "%-10s %8.2f %8.2f %5.0f%%   P|%s  F|%s\n",
			strings.ToUpper(pt.Program), pol, f, 100*pt.Coverage, bar(pol, "#"), bar(f, "-"))
	}

	b.WriteString("\nFigure 6 (top): Speedup of loop TRACK/NLFILT vs processors (10% of\n")
	b.WriteString("invocations fail the PD test and re-execute sequentially)\n")
	fmt.Fprintf(&b, "%5s %8s %8s %10s\n", "Procs", "Speedup", "Passes", "Failures")
	for _, pt := range pick(pts, Full, track.Name) {
		fmt.Fprintf(&b, "%5d %8.2f %8d %10d\n", pt.Procs, float64(pt.LRPDBodyWork)/float64(pt.LRPDTime), pt.LRPDPasses, pt.LRPDFailures)
	}
	// Potential slowdown: a variant whose invocations all fail —
	// (T_seq + T_pdt) / T_seq at the loop level.
	b.WriteString("\nFigure 6 (bottom): Potential slowdown (Tseq + Tpdt)/Tseq vs processors\n")
	fmt.Fprintf(&b, "%5s %9s\n", "Procs", "Slowdown")
	for _, pt := range pick(pts, Full, failingTrack.Name) {
		fmt.Fprintf(&b, "%5d %9.3f\n", pt.Procs, float64(pt.LRPDTime)/float64(pt.LRPDBodyWork))
	}
	b.WriteString("\n")
	b.WriteString(AblationTable(pts))
	return b.String()
}

// AblationTable renders the geometric-mean speedup over the suite with
// each technique removed, and the programs losing more than 20% of
// their full-pipeline speedup.
func AblationTable(pts []Point) string {
	var b strings.Builder
	full := pick(pts, Full, "")
	fmt.Fprintf(&b, "Ablation: geometric-mean speedup over the suite (%d processors)\n", full[0].Procs)
	fmt.Fprintf(&b, "%-24s %8s   hurt programs (>20%% loss)\n", "removed technique", "geomean")
	fmt.Fprintf(&b, "%-24s %8.2f\n", "(none: full pipeline)", GeoMean(full))
	for _, a := range Ablations() {
		removed := pick(pts, a.Name, "")
		var hurt []string
		for i, pt := range removed {
			if pt.Speedup() < full[i].Speedup()*0.8 {
				hurt = append(hurt, pt.Program)
			}
		}
		fmt.Fprintf(&b, "%-24s %8.2f   %s\n", a.Name, GeoMean(removed), strings.Join(hurt, " "))
	}
	b.WriteString("\n")
	return b.String()
}

// WriteJSON writes one sweep's machine-readable benchmark trajectory
// (polaris-bench -json): per program, Table 1's columns and Figure 7's
// bars and coverage, and the suite's aggregates. CI uploads it as a
// build artifact so speedups can be tracked across commits.
func WriteJSON(w io.Writer, pts []Point) error {
	type program struct {
		Name             string  `json:"name"`
		Origin           string  `json:"origin"`
		Lines            int     `json:"lines"`
		SerialCycles     int64   `json:"serial_cycles"`
		PolarisSpeedup   float64 `json:"polaris_speedup"`
		PFASpeedup       float64 `json:"pfa_speedup"`
		ParallelCoverage float64 `json:"parallel_coverage"`
	}
	full, pfa := pick(pts, Full, ""), pick(pts, PFA, "")
	rep := struct {
		// SchemaVersion tracks the report layout (shared with the
		// trace schema: majors are breaking, minors additive).
		SchemaVersion  string    `json:"schema_version"`
		Processors     int       `json:"processors"`
		Programs       []program `json:"programs"`
		PolarisGeoMean float64   `json:"polaris_geomean"`
		PFAGeoMean     float64   `json:"pfa_geomean"`
		MeanCoverage   float64   `json:"mean_parallel_coverage"`
	}{SchemaVersion: obsv.SchemaVersion, Processors: full[0].Procs, PolarisGeoMean: GeoMean(full), PFAGeoMean: GeoMean(pfa)}
	total := 0.0
	for i, pt := range full {
		p, _ := ByName(pt.Program)
		rep.Programs = append(rep.Programs, program{p.Name, p.Origin, p.Lines(), pt.SerialCycles, pt.Speedup(), pfa[i].Speedup(), pt.Coverage})
		total += pt.Coverage
	}
	rep.MeanCoverage = total / float64(len(full))
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}

// pick returns, in sweep order, the points of one configuration for
// the named program, or for every suite program when name is "".
func pick(pts []Point, config, name string) []Point {
	var out []Point
	for _, pt := range pts {
		inSuite := pt.Program != track.Name && pt.Program != failingTrack.Name
		if pt.Config == config && (pt.Program == name || name == "" && inSuite) {
			out = append(out, pt)
		}
	}
	return out
}

// GeoMean is the geometric-mean speedup of the points, multiplied in
// program-name order: float multiplication is not associative at the
// ulp level, so the order must not depend on how the points came.
func GeoMean(pts []Point) float64 {
	pts = slices.Clone(pts)
	slices.SortFunc(pts, func(a, b Point) int { return strings.Compare(a.Program, b.Program) })
	prod := 1.0
	for _, pt := range pts {
		prod *= pt.Speedup()
	}
	return math.Pow(prod, 1.0/float64(len(pts)))
}
