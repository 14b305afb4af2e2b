// Command polaris-bench regenerates the paper's evaluation artifacts on
// the synthetic suite and the simulated machine:
//
//	polaris-bench -table1        Table 1 (codes, lines, serial time)
//	polaris-bench -fig7 [-p 8]   Figure 7 (speedup: Polaris vs PFA)
//	polaris-bench -fig6 [-p 8]   Figure 6 (TRACK: PD-test speedup and
//	                             potential slowdown vs processors)
//	polaris-bench -all           everything
//
// The suite compiles and runs concurrently across a bounded worker
// pool (-j, default one worker per CPU). Every job compiles what it
// measures; a serial-run memo shared by all figures runs each
// program's serial baseline once.
//
// Observability surfaces:
//
//	-json FILE     machine-readable benchmark trajectory (per-program
//	               speedups, parallel coverage, geomeans); "-" = stdout
//	-trace FILE    trace-schema v2 JSONL: per-pass spans, per-loop
//	               decision records, and runtime metrics from every
//	               compilation and execution
//	-pprof FILE    CPU profile of the whole run (go tool pprof)
//	-metrics       dump the observer's event counters as JSON on exit
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"

	"polaris/internal/obsv"
	"polaris/internal/suite"
)

func main() {
	table1 := flag.Bool("table1", false, "regenerate Table 1")
	fig7 := flag.Bool("fig7", false, "regenerate Figure 7")
	fig6 := flag.Bool("fig6", false, "regenerate Figure 6")
	ablation := flag.Bool("ablation", false, "run the technique ablation study")
	all := flag.Bool("all", false, "regenerate everything")
	procs := flag.Int("p", 8, "processors for Figure 7 / max processors for Figure 6")
	workers := flag.Int("j", 0, "suite compile/run worker pool size (0 = one per CPU)")
	tracePath := flag.String("trace", "", "write trace-schema v2 JSONL (spans, decisions, run metrics) to this file")
	jsonPath := flag.String("json", "", "write the machine-readable benchmark report to this file (\"-\" = stdout)")
	pprofPath := flag.String("pprof", "", "write a CPU profile of the run to this file")
	metrics := flag.Bool("metrics", false, "print the observer's event counters as JSON on exit")
	flag.Parse()
	if !*table1 && !*fig7 && !*fig6 && !*ablation && !*all && *jsonPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *pprofPath != "" {
		f, err := os.Create(*pprofPath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	runner := suite.NewRunner()
	runner.Workers = *workers
	obs := obsv.NewObserver()
	runner.Observer = obs
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		obs.SetTrace(obsv.NewTraceWriter(f))
	}

	if *table1 || *all {
		if err := printTable1(ctx, runner); err != nil {
			fail(err)
		}
	}
	if *fig7 || *all {
		if err := printFigure7(ctx, runner, *procs); err != nil {
			fail(err)
		}
	}
	if *fig6 || *all {
		if err := printFigure6(ctx, runner, *procs); err != nil {
			fail(err)
		}
	}
	if *ablation || *all {
		if err := printAblation(ctx, runner, *procs); err != nil {
			fail(err)
		}
	}
	if *jsonPath != "" {
		if err := writeBenchJSON(ctx, runner, *procs, *jsonPath); err != nil {
			fail(err)
		}
	}
	if err := obs.TraceErr(); err != nil {
		fail(fmt.Errorf("trace: %w", err))
	}
	if *metrics {
		out, err := json.MarshalIndent(obs.Counters(), "", "  ")
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "metrics: %s\n", out)
	}
}

// writeBenchJSON assembles the machine-readable benchmark trajectory
// and writes it to path ("-" = stdout).
func writeBenchJSON(ctx context.Context, r *suite.Runner, procs int, path string) error {
	rep, err := r.Bench(ctx, procs)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

func printAblation(ctx context.Context, r *suite.Runner, procs int) error {
	rows, err := r.Ablation(ctx, procs)
	if err != nil {
		return err
	}
	fmt.Printf("Ablation: geometric-mean speedup over the suite (%d processors)\n", procs)
	full := 0.0
	if len(rows) > 0 {
		full = rows[0].FullGeoMean
	}
	fmt.Printf("%-24s %8s   hurt programs (>20%% loss)\n", "removed technique", "geomean")
	fmt.Printf("%-24s %8.2f\n", "(none: full pipeline)", full)
	for _, row := range rows {
		fmt.Printf("%-24s %8.2f   %s\n", row.Technique, row.GeoMean, strings.Join(row.HurtPrograms, " "))
	}
	fmt.Println()
	return nil
}

func printTable1(ctx context.Context, r *suite.Runner) error {
	rows, err := r.Table1(ctx)
	if err != nil {
		return err
	}
	fmt.Println("Table 1: Benchmark codes studied (synthetic suite, simulated machine)")
	fmt.Printf("%-10s %-8s %6s %14s\n", "Program", "Origin", "Lines", "Ser. cycles")
	for _, row := range rows {
		fmt.Printf("%-10s %-8s %6d %14d\n", strings.ToUpper(row.Name), row.Origin, row.Lines, row.SerialCycles)
	}
	fmt.Println()
	return nil
}

func printFigure7(ctx context.Context, r *suite.Runner, procs int) error {
	rows, err := r.Figure7(ctx, procs)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 7: Speedup on %d simulated processors — Polaris vs PFA baseline\n", procs)
	fmt.Printf("%-10s %8s %8s %6s   %s\n", "Program", "Polaris", "PFA", "Cov%", "")
	for _, row := range rows {
		fmt.Printf("%-10s %8.2f %8.2f %5.0f%%   %s\n",
			strings.ToUpper(row.Name), row.Polaris, row.PFA, 100*row.Coverage, bars(row.Polaris, row.PFA))
	}
	fmt.Println()
	return nil
}

func bars(polaris, pfa float64) string {
	bar := func(v float64, ch string) string {
		n := int(v*2 + 0.5)
		if n < 0 {
			n = 0
		}
		return strings.Repeat(ch, n)
	}
	return fmt.Sprintf("P|%s  F|%s", bar(polaris, "#"), bar(pfa, "-"))
}

func printFigure6(ctx context.Context, r *suite.Runner, maxP int) error {
	rows, err := r.Figure6(ctx, maxP)
	if err != nil {
		return err
	}
	fmt.Println("Figure 6 (top): Speedup of loop TRACK/NLFILT vs processors (10% of")
	fmt.Println("invocations fail the PD test and re-execute sequentially)")
	fmt.Printf("%5s %8s %8s %10s\n", "Procs", "Speedup", "Passes", "Failures")
	for _, row := range rows {
		fmt.Printf("%5d %8.2f %8d %10d\n", row.Procs, row.Speedup, row.Passes, row.Failures)
	}
	fmt.Println()
	fmt.Println("Figure 6 (bottom): Potential slowdown (Tseq + Tpdt)/Tseq vs processors")
	fmt.Printf("%5s %9s\n", "Procs", "Slowdown")
	for _, row := range rows {
		fmt.Printf("%5d %9.3f\n", row.Procs, row.Slowdown)
	}
	fmt.Println()
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "polaris-bench:", err)
	os.Exit(1)
}
