// Command polaris-bench regenerates the paper's evaluation on the
// synthetic suite and the simulated machine, and prints it: Table 1
// (codes, lines, serial time), Figure 7 (speedup on -p processors:
// Polaris vs PFA), Figure 6 (TRACK: PD-test speedup and potential
// slowdown on 1..-p processors) and the technique ablation table.
//
// The evaluation is one sweep (suite.Runner.Sweep) across a bounded
// worker pool (-j, default one worker per CPU): each program compiles
// once per configuration, and a serial-run memo runs each program's
// serial baseline once.
//
// Observability surfaces:
//
//	-json FILE     write the machine-readable benchmark trajectory
//	               (per-program speedups, parallel coverage, geomeans)
//	               instead of the tables; "-" = stdout
//	-trace FILE    trace-schema v2 JSONL: per-pass spans, per-loop
//	               decision records, and runtime metrics from every
//	               compilation and execution
//	-pprof FILE    CPU profile of the whole run (go tool pprof)
//	-metrics       dump the observer's event counters as JSON on exit
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"

	"polaris/internal/obsv"
	"polaris/internal/suite"
)

func main() {
	procs := flag.Int("p", 8, "processors for Figure 7 and the ablation table / max processors for Figure 6")
	workers := flag.Int("j", 0, "suite compile/run worker pool size (0 = one per CPU)")
	tracePath := flag.String("trace", "", "write trace-schema v2 JSONL (spans, decisions, run metrics) to this file")
	jsonPath := flag.String("json", "", "write the machine-readable benchmark report to this file (\"-\" = stdout) instead of the tables")
	pprofPath := flag.String("pprof", "", "write a CPU profile of the run to this file")
	metrics := flag.Bool("metrics", false, "print the observer's event counters as JSON on exit")
	flag.Parse()
	if *procs < 1 {
		fail(fmt.Errorf("-p %d: want at least one processor", *procs))
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

	pts, err := runner.Sweep(ctx, *procs)
	if err != nil {
		fail(err)
	}
	switch *jsonPath {
	case "":
		_, err = os.Stdout.WriteString(suite.Paper(pts))
	case "-":
		err = suite.WriteJSON(os.Stdout, pts)
	default:
		var b bytes.Buffer
		if err = suite.WriteJSON(&b, pts); err == nil {
			err = os.WriteFile(*jsonPath, b.Bytes(), 0o644)
		}
	}
	if err != nil {
		fail(err)
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

func fail(err error) {
	fmt.Fprintln(os.Stderr, "polaris-bench:", err)
	os.Exit(1)
}
