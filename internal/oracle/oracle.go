// Package oracle differentially checks the whole compiler against
// itself. Every program under test is executed four ways — sequential
// un-annotated IR (the reference), full pipeline with simulated
// parallel execution, full pipeline with real concurrent (goroutine)
// execution, and every row of the ablation grid — and the final COMMON
// memory state of each run must match the reference. On top of the
// mode grid the oracle asserts metamorphic invariants: results must be
// invariant to the simulated processor count (P in {1, 2, 7, 16}), to
// Validate-mode reversed iteration order, and to a trace-streaming
// Observer being attached or not (both the restructured source and the
// execution results).
//
// Soundness is exactly what the paper's techniques promise: a loop the
// range test, privatization, or induction substitution marks DOALL must
// produce identical results in any iteration order, and the LRPD test
// enforces the same property at run time. Programs from package fuzzgen
// keep all arithmetic exact (see its package comment), so the oracle
// compares with Tolerance 0 and any mismatch — even one ulp — is a
// compiler bug.
//
// Failures are shrunk by the greedy statement-deleting minimizer
// (MinimizeSource) and dumped as replayable JSONL artifacts
// (WriteArtifact / Replay).
package oracle

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"polaris/internal/core"
	"polaris/internal/interp"
	"polaris/internal/ir"
	"polaris/internal/machine"
	"polaris/internal/obsv"
	"polaris/internal/parser"
	"polaris/internal/suite"
)

// Config tunes one oracle check.
type Config struct {
	// Processors is the simulated machine size for the primary modes
	// (default 8).
	Processors int
	// MetamorphicProcs are the processor counts the concurrent mode
	// must be invariant over (default 1, 2, 7, 16).
	MetamorphicProcs []int
	// Tolerance is the allowed relative state difference. Zero demands
	// bit-identical results — correct for fuzzgen programs, whose
	// arithmetic is exact by construction. Suite programs with real
	// rounding use a small relative tolerance.
	Tolerance float64
	// SkipAblation drops the ablation-grid rows (a large fraction of
	// the per-program cost).
	SkipAblation bool
	// SkipMetamorphic drops the processor-count sweep.
	SkipMetamorphic bool
	// SkipMinimize reports discrepancies without shrinking them.
	SkipMinimize bool
	// Native enables the fifth mode: lower the compiled program to Go
	// with the codegen backend, build it with the real toolchain, and
	// compare its serial and parallel final states against the reference
	// at tolerance 0 (the harness prints exact hex floats). Programs the
	// backend refuses are skipped silently.
	Native bool
	// NativeRace builds the emitted program with -race.
	NativeRace bool
}

func (c Config) withDefaults() Config {
	if c.Processors <= 0 {
		c.Processors = 8
	}
	if c.MetamorphicProcs == nil {
		c.MetamorphicProcs = []int{1, 2, 7, 16}
	}
	return c
}

// State is a final-memory snapshot: "BLOCK.NAME" -> flattened values.
type State map[string][]float64

// Diff compares two states and returns "" when they match within tol
// (relative), or a short human-readable description of the first few
// mismatches. Missing or length-mismatched variables always mismatch.
func Diff(want, got State, tol float64) string {
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	var msgs []string
	add := func(format string, args ...interface{}) {
		if len(msgs) < 4 {
			msgs = append(msgs, fmt.Sprintf(format, args...))
		}
	}
	for _, k := range names {
		w, okW := want[k]
		g, okG := got[k]
		if !okW || !okG {
			add("%s: present in one state only", k)
			continue
		}
		if len(w) != len(g) {
			add("%s: length %d vs %d", k, len(w), len(g))
			continue
		}
		for i := range w {
			d := math.Abs(w[i] - g[i])
			if d > tol*(1+math.Max(math.Abs(w[i]), math.Abs(g[i]))) {
				add("%s[%d]: want %v, got %v", k, i, w[i], g[i])
				break
			}
		}
	}
	if len(msgs) == 0 {
		return ""
	}
	out := msgs[0]
	for _, m := range msgs[1:] {
		out += "; " + m
	}
	return out
}

// Mode names one cell of the execution grid.
type Mode struct {
	Name       string
	Procs      int
	Concurrent bool
	Validate   bool
	// Trace attaches an Observer streaming schema-v2 records to
	// io.Discard: observing a compile must not change its output.
	Trace bool
	// Ablate names a suite.Ablations() row to remove, "" for the full
	// pipeline.
	Ablate string
}

// Discrepancy is one soundness violation: a mode whose final state
// disagrees with the sequential reference. It is the JSONL artifact
// schema (one object per line).
type Discrepancy struct {
	// Label identifies the program (suite name or "fuzz-<seed>").
	Label string `json:"label"`
	// Seed reproduces a fuzzgen program; zero for external sources.
	Seed uint64 `json:"seed,omitempty"`
	// Mode is the grid cell that diverged (or "error" for an
	// infrastructure failure).
	Mode string `json:"mode"`
	// Detail describes the first mismatching variables.
	Detail string `json:"detail"`
	// Source is the full failing program.
	Source string `json:"source"`
	// Minimized is the shrunk reproducer, when minimization ran.
	Minimized string `json:"minimized,omitempty"`
	// MinimizedLines counts its non-blank lines.
	MinimizedLines int `json:"minimized_lines,omitempty"`
}

// runRef executes the un-annotated program serially and snapshots its
// COMMON state — the semantics every other mode must reproduce.
func runRef(ctx context.Context, src string) (State, error) {
	prog, err := parser.ParseProgram(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	in := interp.New(prog, machine.Default())
	in.Parallel = false
	if err := in.RunContext(ctx); err != nil {
		return nil, fmt.Errorf("serial run: %w", err)
	}
	return State(in.CommonState()), nil
}

// compileMode runs the pipeline for a mode and returns the restructured
// program, which runCompiled executes only as a clone.
func compileMode(ctx context.Context, src string, m Mode) (*ir.Program, error) {
	prog, err := parser.ParseProgram(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	opt := core.PolarisOptions()
	if m.Ablate != "" {
		found := false
		for _, a := range suite.Ablations() {
			if a.Name == m.Ablate {
				a.Mod(&opt)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown ablation %q", m.Ablate)
		}
	}
	if m.Trace {
		opt.Observer = obsv.NewObserver()
		opt.Observer.SetTrace(obsv.NewTraceWriter(io.Discard))
		opt.TraceLabel = m.Name
	}
	res, err := core.CompileContext(ctx, prog, opt)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	return res.Program, nil
}

// runMode compiles and executes src under the mode and snapshots the
// final COMMON state.
func runMode(ctx context.Context, src string, m Mode) (State, error) {
	compiled, err := compileMode(ctx, src, m)
	if err != nil {
		return nil, err
	}
	return runCompiled(ctx, compiled, m)
}

// runCompiled executes a clone of compiled under the mode and snapshots
// the final COMMON state.
func runCompiled(ctx context.Context, compiled *ir.Program, m Mode) (State, error) {
	procs := m.Procs
	if procs <= 0 {
		procs = 8
	}
	in := interp.New(compiled.Clone(), machine.Default().WithProcessors(procs))
	in.Parallel = true
	in.Validate = m.Validate
	in.Concurrent = m.Concurrent
	if err := in.RunContext(ctx); err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	return State(in.CommonState()), nil
}

// modes enumerates the grid for a config: the three primary pipeline
// modes, the processor sweep, and the ablation rows.
func modes(cfg Config) []Mode {
	p := cfg.Processors
	ms := []Mode{
		{Name: "pipeline-parallel", Procs: p},
		{Name: "pipeline-validate", Procs: p, Validate: true},
		{Name: "pipeline-concurrent", Procs: p, Concurrent: true},
	}
	if !cfg.SkipMetamorphic {
		for _, mp := range cfg.MetamorphicProcs {
			if mp == p {
				continue
			}
			ms = append(ms,
				Mode{Name: fmt.Sprintf("concurrent-p%d", mp), Procs: mp, Concurrent: true},
				Mode{Name: fmt.Sprintf("parallel-p%d", mp), Procs: mp},
			)
		}
		ms = append(ms, Mode{Name: "trace-on", Procs: p, Trace: true})
	}
	if !cfg.SkipAblation {
		for _, a := range suite.Ablations() {
			ms = append(ms, Mode{Name: "ablate:" + a.Name, Procs: p, Ablate: a.Name})
		}
	}
	return ms
}

// Check runs the full oracle over one program: reference execution,
// every grid mode, the trace-invariance check on the restructured
// source, and (on failure) minimization. It returns the discrepancies;
// err is non-nil only for infrastructure failures of the reference run
// itself.
func Check(ctx context.Context, label, src string, cfg Config) ([]Discrepancy, error) {
	cfg = cfg.withDefaults()
	ref, err := runRef(ctx, src)
	if err != nil {
		return nil, err
	}
	// Modes differ in how they run more often than in how they compile:
	// each (ablation, trace) pair is parsed and compiled once, and every
	// mode runs a clone of it.
	type compileKey struct {
		ablate string
		trace  bool
	}
	type compiled struct {
		prog *ir.Program
		err  error
	}
	cache := map[compileKey]compiled{}
	compile := func(m Mode) (*ir.Program, error) {
		k := compileKey{m.Ablate, m.Trace}
		c, ok := cache[k]
		if !ok {
			c.prog, c.err = compileMode(ctx, src, m)
			cache[k] = c
		}
		return c.prog, c.err
	}
	var out []Discrepancy
	report := func(m Mode, detail string) {
		d := Discrepancy{Label: label, Mode: m.Name, Detail: detail, Source: src}
		if !cfg.SkipMinimize {
			min := MinimizeSource(ctx, src, func(ctx context.Context, cand string) bool {
				return modeDisagrees(ctx, cand, m, cfg.Tolerance)
			})
			d.Minimized = min
			d.MinimizedLines = nonBlankLines(min)
		}
		out = append(out, d)
	}
	for _, m := range modes(cfg) {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		prog, err := compile(m)
		var got State
		if err == nil {
			got, err = runCompiled(ctx, prog, m)
		}
		if err != nil {
			out = append(out, Discrepancy{Label: label, Mode: m.Name + " (error)", Detail: err.Error(), Source: src})
			continue
		}
		if d := Diff(ref, got, cfg.Tolerance); d != "" {
			report(m, d)
		}
	}
	if cfg.Native {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		out = append(out, checkNative(ctx, label, src, ref, cfg)...)
	}
	if !cfg.SkipMetamorphic {
		// Observing must not change what the compiler produces: the
		// restructured source with and without a streaming Observer must
		// be identical. The two are the full pipeline's compile and
		// trace-on's.
		plain, err1 := compile(Mode{Name: "plain"})
		traced, err2 := compile(Mode{Name: "traced", Trace: true})
		switch {
		case err1 != nil:
			out = append(out, Discrepancy{Label: label, Mode: "trace-invariance (error)", Detail: err1.Error(), Source: src})
		case err2 != nil:
			out = append(out, Discrepancy{Label: label, Mode: "trace-invariance (error)", Detail: err2.Error(), Source: src})
		case plain.Fortran() != traced.Fortran():
			out = append(out, Discrepancy{Label: label, Mode: "trace-invariance",
				Detail: "restructured source differs with a streaming Observer attached", Source: src})
		}
	}
	return out, nil
}

// modeDisagrees is the minimizer predicate: does cand still produce a
// state mismatch (or a hard failure) between the serial reference and
// the given mode?
func modeDisagrees(ctx context.Context, cand string, m Mode, tol float64) bool {
	ref, err := runRef(ctx, cand)
	if err != nil {
		return false
	}
	got, err := runMode(ctx, cand, m)
	if err != nil {
		return true
	}
	return Diff(ref, got, tol) != ""
}

func nonBlankLines(s string) int {
	n := 0
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			for j := start; j < i; j++ {
				if s[j] != ' ' && s[j] != '\t' && s[j] != '\r' {
					n++
					break
				}
			}
			start = i + 1
		}
	}
	return n
}
