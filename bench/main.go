// Command bench is the repository's benchmark: six workloads from the
// lexer to the fabric hop, end-to-end numbers from untraced runs and
// per-layer numbers from a separate traced run, with a correctness
// gate on every run. See README.md beside this file.
//
//	go run ./bench                 every workload, end-to-end rows
//	go run ./bench -trace          the same, then every workload traced
//	go run ./bench -workload NAME  one workload (add -trace for its per-layer rows)
//	go run ./bench -aa             the whole benchmark twice; fails when the two disagree
//	go run ./bench -list           workload and metric names with units
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// defaultSeconds is how long one run measures when -seconds is not
// given; BENCHMARK.json's run_seconds says the same.
const defaultSeconds = 12

// workloads lists the benchmark's workloads in print order. The three
// compile workloads have one client, a caller waiting for its
// compiler; the three server workloads have as many clients as the box
// has processors, each waiting for its answer before asking again.
func workloads() []workloadDef {
	nproc := runtime.GOMAXPROCS(0)
	return []workloadDef{
		{"suite_cold", "the paper's 16 programs, source to Fortran and Go: small units, cold prover, dependence analysis dominates", 1, setupSuiteCold},
		{"mega_cold", "a 48.6k-line, 1436-unit program from source to Fortran: scale, allocation, GC and the per-unit fan-out", 1, setupMegaCold},
		{"edit_loop", "one-unit edits of that program against a warm unit memo: parser and memo replay dominate, analysis idles", 1, setupEditLoop},
		{"serve_cold", "POST /v1/compile of never-seen suite variants: the service miss path, compile plus a small server share", nproc, setupServeCold},
		{"serve_warm", "the same route over a 512-entry resident working set: cache lookup, replay, encode and HTTP, no compiler", nproc, setupServeWarm},
		{"fabric_fill", "two nodes, requests to one for keys the other holds warm: the peer hop no other workload touches", nproc, setupFabricFill},
	}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// normalizeArgs lets -trace be given bare, as a person types it, or
// with a separate 0/1 value, as the benchmark driver passes it.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload, in this process")
	seed := fs.Int64("seed", 1, "seed of the variant tags, the edit order and the request draws")
	seconds := fs.Float64("seconds", defaultSeconds, "how long each run measures")
	trace := fs.Bool("trace", false, "traced run: per-layer rows, spans written under -out")
	list := fs.Bool("list", false, "print workload and metric names with units")
	aa := fs.Bool("aa", false, "run the whole benchmark twice and fail when the two runs disagree beyond the bounds")
	out := fs.String("out", "bench/out", "directory a traced run writes its spans to")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	cfg := runConfig{seed: uint64(*seed), seconds: *seconds, traced: *trace, outDir: *out}
	switch {
	case *list:
		printList()
		return nil
	case *workload != "":
		return runOne(*workload, cfg)
	case *aa:
		return runAA(cfg)
	}
	cfg.traced = false
	_, err := runAll(cfg)
	if err == nil && *trace {
		// About a quarter of the operations: the traced run attributes
		// time, it does not need the untraced run's sample count.
		cfg.seconds /= 4
		cfg.traced = true
		_, err = runAll(cfg)
	}
	return err
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads() {
		fmt.Printf("  %-12s %d client(s)  %s\n", w.name, w.clients, w.why)
	}
	fmt.Println("end-to-end metrics (untraced run; unit, better, bound):")
	for _, m := range metricTable {
		if m.E2E {
			fmt.Printf("  %-38s %-9s %-6s %g\n", m.Name, m.Unit, m.Better, m.Bound)
		}
	}
	fmt.Println("per-layer metrics (traced run; the first eight describe the whole operation and the untraced run prints them too; unit, better):")
	for _, m := range metricTable {
		if !m.E2E {
			fmt.Printf("  %-38s %-9s %s\n", m.Name, m.Unit, m.Better)
		}
	}
}

// runOne runs one workload in this process, so that peak_rss_mb is
// that workload's alone, and prints its result object as the last line
// of standard output.
func runOne(name string, cfg runConfig) error {
	for _, def := range workloads() {
		if def.name != name {
			continue
		}
		res, v, err := runWorkload(def, cfg)
		if err != nil {
			return err
		}
		printValues(def, cfg, v, res)
		// Every row this run measured, for the parent's table; then the
		// result object, whose metrics are the run kind's own.
		all, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(valuesPrefix + string(all))
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.Correct {
			return fmt.Errorf("%s: correctness gate failed (%d of %d operations failed)", name, res.Failed, res.Attempted)
		}
		return nil
	}
	return fmt.Errorf("unknown workload %q (see -list)", name)
}

// valuesPrefix starts the line on which a single-workload run prints
// every row it measured.
const valuesPrefix = "values "

// run1 is what the parent keeps of one child: its result object and
// every row it measured.
type run1 struct {
	result
	all values
}

// child re-executes this binary for one workload and returns the
// result object it printed last and the rows it printed before it.
func child(def workloadDef, cfg runConfig) (run1, error) {
	exe, err := os.Executable()
	if err != nil {
		return run1{}, err
	}
	cmd := exec.Command(exe, "-workload", def.name,
		"-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace="+strconv.FormatBool(cfg.traced), "-out", cfg.outDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	var last string
	var res run1
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if strings.HasPrefix(last, "FAIL") {
			fmt.Println(last)
		}
		if all, ok := strings.CutPrefix(last, valuesPrefix); ok {
			_ = json.Unmarshal([]byte(all), &res.all) // a missing table row reads 0
		}
	}
	if err := json.Unmarshal([]byte(last), &res.result); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", def.name, runErr)
		}
		return res, fmt.Errorf("%s: no result line: %w", def.name, err)
	}
	if runErr != nil {
		return res, fmt.Errorf("%s: %w", def.name, runErr)
	}
	return res, nil
}

// runAll runs every workload, each in a child process of its own, and
// prints one table: a row per metric, a column per workload.
func runAll(cfg runConfig) (map[string]run1, error) {
	defs := workloads()
	results := map[string]run1{}
	var failed []string
	for _, def := range defs {
		fmt.Fprintf(os.Stderr, "running %s (traced=%v, %gs)...\n", def.name, cfg.traced, cfg.seconds)
		res, err := child(def, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			failed = append(failed, def.name)
		}
		results[def.name] = res
	}
	kind := "end-to-end metrics (and, ungated, the whole-operation rows), untraced runs"
	if cfg.traced {
		kind = "per-layer metrics, traced runs"
	}
	fmt.Printf("%s: seed %d, %gs per workload, GOMAXPROCS %d, %s\n", kind, cfg.seed, cfg.seconds, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("%-36s %-9s", "metric", "unit")
	for _, def := range defs {
		fmt.Printf(" %14s", def.name)
	}
	fmt.Println()
	for _, m := range metricTable {
		if !m.shownBy(cfg.traced) {
			continue
		}
		fmt.Printf("%-36s %-9s", m.Name, m.Unit)
		for _, def := range defs {
			fmt.Printf(" %14s", formatValue(results[def.name].all[m.Name]))
		}
		fmt.Println()
	}
	for _, row := range []struct {
		name string
		get  func(run1) string
	}{
		{"attempted", func(r run1) string { return strconv.Itoa(r.Attempted) }},
		{"failed", func(r run1) string { return strconv.Itoa(r.Failed) }},
		{"correct", func(r run1) string { return strconv.FormatBool(r.Correct) }},
	} {
		fmt.Printf("%-36s %-9s", row.name, "")
		for _, def := range defs {
			fmt.Printf(" %14s", row.get(results[def.name]))
		}
		fmt.Println()
	}
	if len(failed) > 0 {
		return results, fmt.Errorf("failed: %s", strings.Join(failed, ", "))
	}
	return results, nil
}

// runAA runs the benchmark twice on the same build and fails when any
// bounded row of any workload differs between the two runs by more
// than its bound. Every bounded row is one the untraced run measures.
func runAA(cfg runConfig) error {
	cfg.traced = false
	a, err := runAll(cfg)
	if err != nil {
		return err
	}
	b, err := runAll(cfg)
	if err != nil {
		return err
	}
	bad := 0
	for _, def := range workloads() {
		for _, m := range metricTable {
			if !m.AA {
				continue
			}
			x, y := a[def.name].all[m.Name], b[def.name].all[m.Name]
			if d := relDiff(x, y); d > m.Bound {
				bad++
				fmt.Printf("A/A %s %s: %s vs %s differ by %.1f%%, bound %.1f%%\n",
					def.name, m.Name, formatValue(x), formatValue(y), 100*d, 100*m.Bound)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("A/A: %d metric(s) outside their bounds", bad)
	}
	fmt.Println("A/A: every bounded metric of every workload within its bound")
	return nil
}

// relDiff is the distance between two runs' values as a share of the
// smaller one.
func relDiff(x, y float64) float64 {
	if x == y {
		return 0
	}
	lo := min(math.Abs(x), math.Abs(y))
	if lo == 0 {
		return 1
	}
	return math.Abs(x-y) / lo
}
