// Command polaris compiles a Fortran-subset source file with the
// Polaris pipeline (or the PFA-level baseline) and prints the
// restructured, directive-annotated program.
//
// Usage:
//
//	polaris [-baseline] [-summary] [-report] [-trace file.jsonl]
//	        [-suite name] [file.f]
//	polaris explain [-v] [-suite name] [file.f] [loop]
//	polaris emit [-target go|fortran] [-o dir] [-p n] [-suite name] [file.f]
//
// With -suite, the named embedded benchmark program is compiled
// instead of reading a file. -report prints the pass manager's
// per-pass wall time and mutation counts; -trace streams the same
// instrumentation, with the per-loop decision records, as trace-schema
// v2 JSON lines (DESIGN.md §5b).
//
// The emit subcommand writes the compiler's product as source: with
// -target fortran the directive-annotated restructured program, with
// -target go (the default) a standalone parallel Go program lowered
// from the analysis results — buildable with the stock toolchain and
// runnable with a -p worker-count flag.
//
// The explain subcommand prints one human-readable line per loop
// naming the verdict and the enabling technique or blocking dependence
// ("MAIN/L30 DO I: DOALL — independence proved by the range test;
// array privatization of WRK"). With a loop argument (a stable ID like
// MAIN/L30, a bare label like L30, or an index variable) it explains
// just that loop; -v adds the full per-pass decision trail.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"polaris"
	"polaris/internal/suite"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "explain" {
		os.Exit(runExplain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "emit" {
		os.Exit(runEmit(os.Args[2:]))
	}
	baseline := flag.Bool("baseline", false, "use the 1996 vendor-compiler (PFA) technique level")
	summary := flag.Bool("summary", false, "print only the per-loop report, not the program")
	report := flag.Bool("report", false, "print per-pass timings and mutation counts")
	tracePath := flag.String("trace", "", "write trace-schema v2 JSONL (spans, decisions) to this file")
	suiteName := flag.String("suite", "", "compile the named embedded benchmark (e.g. trfd, ocean, bdna)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	label, src, err := readSource(*suiteName, flag.Args())
	if err != nil {
		fail(err)
	}
	prog, err := polaris.Parse(src)
	if err != nil {
		fail(fmt.Errorf("parse: %w", err))
	}
	opts := []polaris.Option{polaris.WithTraceLabel(label)}
	if *baseline {
		opts = append(opts, polaris.WithBaseline())
	}
	var obs *polaris.Observer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		obs = polaris.NewObserver()
		obs.StreamTo(f)
		opts = append(opts, polaris.WithObserver(obs))
	}
	res, err := polaris.Compile(ctx, prog, opts...)
	if err != nil {
		fail(fmt.Errorf("compile: %w", err))
	}
	if obs != nil {
		if err := obs.TraceErr(); err != nil {
			fail(fmt.Errorf("trace: %w", err))
		}
	}
	if *report {
		printReport(res)
	}
	if *summary {
		fmt.Print(res.Summary())
		return
	}
	if !*report {
		if err := res.Emit(os.Stdout, polaris.EmitFortran); err != nil {
			fail(err)
		}
	}
}

// runExplain compiles the program with an observer attached and
// renders the per-loop decision provenance.
func runExplain(args []string) int {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	suiteName := fs.String("suite", "", "explain the named embedded benchmark (e.g. trfd, ocean, bdna)")
	verbose := fs.Bool("v", false, "print the full per-pass decision trail, not just the verdict line")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: polaris explain [-v] [-suite name | file.f] [loop]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	rest := fs.Args()

	var srcArgs []string
	query := ""
	switch {
	case *suiteName != "":
		if len(rest) > 1 {
			fs.Usage()
			return 2
		}
		if len(rest) == 1 {
			query = rest[0]
		}
	case len(rest) >= 1 && len(rest) <= 2:
		srcArgs = rest[:1]
		if len(rest) == 2 {
			query = rest[1]
		}
	default:
		fs.Usage()
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	label, src, err := readSource(*suiteName, srcArgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "polaris explain:", err)
		return 2
	}
	prog, err := polaris.Parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "polaris explain: parse:", err)
		return 1
	}
	obs := polaris.NewObserver()
	if _, err := polaris.Compile(ctx, prog, polaris.WithTraceLabel(label), polaris.WithObserver(obs)); err != nil {
		fmt.Fprintln(os.Stderr, "polaris explain: compile:", err)
		return 1
	}

	if query != "" {
		line := obs.Explain(label, query)
		if line == "" {
			fmt.Fprintf(os.Stderr, "polaris explain: no loop matches %q\n", query)
			return 1
		}
		fmt.Println(line)
		if *verbose {
			printTrail(obs.Trail(label, query))
		}
		return 0
	}
	lines := obs.Explanations(label)
	if len(lines) == 0 {
		fmt.Fprintln(os.Stderr, "polaris explain: no loops found")
		return 1
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	if *verbose {
		printTrail(obs.Trail(label, ""))
	}
	return 0
}

// printTrail renders per-pass decision records beneath the verdict
// lines: pass name, detail, and the supporting evidence.
func printTrail(trail []polaris.LoopDecision) {
	fmt.Println()
	for _, d := range trail {
		head := fmt.Sprintf("%s [%s]", d.Loop, d.Pass)
		if d.Verdict != "" {
			head += " " + d.Verdict
		}
		fmt.Printf("%s: %s\n", head, d.Detail)
		if d.Technique != "" {
			fmt.Printf("    technique: %s\n", d.Technique)
		}
		if d.Blocker != "" {
			fmt.Printf("    blocker:   %s\n", d.Blocker)
		}
		for _, ev := range d.Evidence {
			fmt.Printf("    - %s\n", ev)
		}
	}
}

func printReport(res *polaris.Result) {
	if res.Report == nil {
		fmt.Fprintln(os.Stderr, "polaris: no pipeline report (baseline compiler)")
		return
	}
	fmt.Printf("pipeline (%s): %v total\n", res.Report.Label, res.Report.Total.Round(time.Microsecond))
	for _, ev := range res.Report.Events {
		fmt.Printf("  %-22s %10v", ev.Pass, ev.Duration.Round(time.Microsecond))
		for _, k := range sortedKeys(ev.Mutations) {
			fmt.Printf("  %s=%d", k, ev.Mutations[k])
		}
		fmt.Println()
	}
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func readSource(suiteName string, args []string) (label, src string, err error) {
	if suiteName != "" {
		p, ok := suite.ByName(suiteName)
		if !ok {
			return "", "", fmt.Errorf("unknown suite program %q", suiteName)
		}
		return p.Name, p.Source, nil
	}
	if len(args) != 1 {
		return "", "", fmt.Errorf("usage: polaris [-baseline] [-summary] [-report] [-trace f] [-suite name | file.f]")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return "", "", err
	}
	return args[0], string(data), nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "polaris:", err)
	os.Exit(1)
}
