package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"polaris"
	"polaris/internal/fuzzgen"
	"polaris/internal/lexer"
	"polaris/internal/oracle"
	"polaris/internal/parser"
	"polaris/internal/suite"
)

// suitePrograms copies the paper suite into the harness's own type.
func suitePrograms() []program {
	var out []program
	for _, p := range suite.All() {
		out = append(out, program{name: p.Name, source: p.Source, lines: nonBlankLines(p.Source)})
	}
	return out
}

// megaName is the megaprogram both scale workloads compile. It does
// not follow -seed: doall_loops is gated at bound 0, so every seed must
// compile the same loops; the seed tags the source instead.
const megaName = "mega50k"

func megaProgram() (program, int, error) {
	for _, spec := range fuzzgen.MegaCorpus() {
		if spec.Name == megaName {
			mp := spec.Generate()
			return program{name: spec.Name, source: mp.Source, lines: mp.Lines}, mp.Units, nil
		}
	}
	return program{}, 0, fmt.Errorf("%s missing from fuzzgen.MegaCorpus", megaName)
}

// doallOrLRPD counts the loops a compile marked parallel, statically
// (DOALL) or behind a run-time test (LRPD).
func doallOrLRPD(res *polaris.Result) (doall, lrpd int) {
	for _, l := range res.Loops {
		switch {
		case l.Parallel:
			doall++
		case len(l.RunTimeTest) > 0:
			lrpd++
		}
	}
	return doall, lrpd
}

// codeSum is the SHA-256 of emitted Fortran without its "C  " comment
// lines: the header that restates each loop's verdict and reason in
// prose. The determinism gates compare everything else, directives
// included. The reason of a serial loop blocked by two scalars names
// whichever the analysis met first, and that order is not stable
// between compiles of the same source (mega50k, P1059: "scalar T1" or
// "scalar T2"); the verdicts and the code never differ. README, "Found
// while building".
func codeSum(fortran string) [sha256.Size]byte {
	h := sha256.New()
	for len(fortran) > 0 {
		line := fortran
		if nl := strings.IndexByte(fortran, '\n'); nl >= 0 {
			line = fortran[:nl+1]
		}
		fortran = fortran[len(line):]
		if !strings.HasPrefix(line, "C  ") {
			io.WriteString(h, line)
		}
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// compileCounts are the counters the traced compile operations sum.
// The compile workloads have one client, so nothing here is shared.
type compileCounts struct {
	tokens, lexedLines int64
	coreUse            usage
	coreWall           time.Duration
	mutations          map[string]int64
	deps               polaris.Stats
	fortranBytes       int64
	goBytes, goRefused int64
	reused, recompiled int64
}

// compiler runs source → Parse → Compile → Emit through package
// polaris, which is what a user of the library calls; each call is one
// layer's public entry point behind a thin wrapper, and the traced
// operations put their spans around these calls.
type compiler struct {
	ctx    context.Context
	opts   []polaris.Option
	emitGo bool
	counts compileCounts
	// lexLater holds every source a traced operation parsed, to be lexed
	// once the measured phase is over (settle).
	lexLater []lexJob
}

type lexJob struct {
	tr         *opSpans
	parserSpan int64
	src        string
	lines      int
}

func newCompiler(emitGo bool, opts ...polaris.Option) *compiler {
	return &compiler{ctx: context.Background(), opts: opts, emitGo: emitGo,
		counts: compileCounts{mutations: map[string]int64{}}}
}

// analyse is one source's trip through the parser and the pass
// pipeline inside an operation whose root span is root.
func (c *compiler) analyse(tr *opSpans, root int64, p program, src string) (*polaris.Result, error) {
	t0 := time.Now()
	prog, err := polaris.Parse(src)
	t1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", p.name, err)
	}
	if tr == nil {
		res, err := polaris.Compile(c.ctx, prog, c.opts...)
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", p.name, err)
		}
		return res, nil
	}
	c.lexLater = append(c.lexLater, lexJob{tr, tr.add("parser", root, t0, t1), src, p.lines})
	var st polaris.Stats
	opts := append(c.opts[:len(c.opts):len(c.opts)], polaris.WithStats(&st))
	u0 := readUsage()
	t2 := time.Now()
	res, err := polaris.Compile(c.ctx, prog, opts...)
	t3 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", p.name, err)
	}
	c.counts.coreUse = c.counts.coreUse.add(readUsage().sub(u0))
	c.counts.coreWall += t3.Sub(t2)
	core := tr.add("core", root, t2, t3)
	var names []string
	var durs []time.Duration
	for _, ev := range res.Report.Events {
		names = append(names, "pass."+ev.Pass)
		durs = append(durs, ev.Duration)
		for _, n := range ev.Mutations {
			c.counts.mutations[ev.Pass] += n
		}
	}
	tr.layOut(core, names, durs)
	c.counts.deps.PairsTested += st.PairsTested
	c.counts.deps.LinearDecided += st.LinearDecided
	c.counts.deps.RangeTests += st.RangeTests
	c.counts.reused += int64(res.UnitsReused)
	c.counts.recompiled += int64(res.UnitsRecompiled)
	return res, nil
}

// emit renders a compile result as Fortran, and as Go when the
// workload asks for both back ends. It returns the Fortran.
func (c *compiler) emit(tr *opSpans, root int64, p program, res *polaris.Result) (string, error) {
	var fortran strings.Builder
	t0 := time.Now()
	if err := res.Emit(&fortran, polaris.EmitFortran); err != nil {
		return "", fmt.Errorf("%s: emit fortran: %w", p.name, err)
	}
	t1 := time.Now()
	if tr != nil {
		tr.add("codegen.fortran", root, t0, t1)
		c.counts.fortranBytes += int64(fortran.Len())
	}
	if c.emitGo {
		var gosrc strings.Builder
		t2 := time.Now()
		// A refusal is the backend's typed answer for a program it cannot
		// lower, not a failed operation; it is counted.
		err := res.Emit(&gosrc, polaris.EmitGo)
		t3 := time.Now()
		if tr != nil {
			tr.add("codegen.go", root, t2, t3)
			c.counts.goBytes += int64(gosrc.Len())
			if err != nil {
				c.counts.goRefused++
			}
		}
	}
	return fortran.String(), nil
}

// settle times lexer.Lex on every source the traced operations parsed
// and lays each result out as the first child of that parse's span.
// The parser calls the lexer itself and the harness may not put spans
// inside the program, so the lexer's share is measured by this second
// call, made after the measured phase so that it costs the phase
// neither time nor CPU.
func (c *compiler) settle() {
	for _, job := range c.lexLater {
		t := time.Now()
		toks, err := lexer.Lex(job.src)
		d := time.Since(t)
		if err != nil {
			continue // Parse accepted the source, so Lex cannot reject it
		}
		job.tr.layOut(job.parserSpan, []string{"lexer"}, []time.Duration{d})
		c.counts.tokens += int64(len(toks))
		c.counts.lexedLines += int64(job.lines)
	}
	c.lexLater = nil
}

// The compile workloads need no batches and hold nothing to release.
func (c *compiler) prepare(int) (int, error) { return 0, nil }
func (c *compiler) close() error             { return nil }

// rows turns the summed counters into per-operation rows.
func (c *compiler) rows(ph *phase, v values) {
	if ph.tracedOps == 0 {
		return
	}
	n := c.counts
	if s := float64(ph.totals.busy["lexer"]) / 1e9; s > 0 {
		v["lexer.tokens_per_s"] = float64(n.tokens) / s
	}
	if s := float64(ph.totals.busy["parser"]) / 1e9; s > 0 {
		v["parser.lines_per_s"] = float64(n.lexedLines) / s
	}
	if n.coreWall > 0 {
		v["core.cpu_per_wall"] = float64(n.coreUse.cpu) / float64(n.coreWall)
	}
	v["core.alloc_mb"] = ph.perOp(float64(n.coreUse.allocBytes) / (1 << 20))
	v["core.allocs"] = ph.perOp(float64(n.coreUse.allocObjs))
	v["core.gc_cycles"] = ph.perOp(float64(n.coreUse.gcCycles))
	v["core.gc_pause_s"] = ph.perOp(n.coreUse.gcPause.Seconds())
	for _, p := range passNames {
		v["pass."+p+".mutations"] = ph.perOp(float64(n.mutations[p]))
	}
	v["deps.pairs_tested"] = ph.perOp(float64(n.deps.PairsTested))
	v["deps.linear_decided"] = ph.perOp(float64(n.deps.LinearDecided))
	v["deps.range_tests"] = ph.perOp(float64(n.deps.RangeTests))
	v["codegen.fortran_bytes"] = ph.perOp(float64(n.fortranBytes))
	v["codegen.go_bytes"] = ph.perOp(float64(n.goBytes))
	v["codegen.go_refused"] = ph.perOp(float64(n.goRefused))
	v["memo.units_reused"] = ph.perOp(float64(n.reused))
	v["memo.units_recompiled"] = ph.perOp(float64(n.recompiled))
}

// countUnits parses src with the parser's own entry point and returns
// how many program units it holds (the facade does not expose them).
func countUnits(src string) (int, error) {
	prog, err := parser.ParseProgram(src)
	if err != nil {
		return 0, err
	}
	return len(prog.Units), nil
}

// ---- suite_cold ----

type suiteCold struct {
	*compiler
	cfg      runConfig
	progs    []program
	expected map[string]expectedProgram
	// lastDoall is the DOALL+LRPD count each program's latest compile
	// reported, which doall_loops sums.
	lastDoall map[string]int
}

func setupSuiteCold(cfg runConfig, _ int) (instance, error) {
	exp, err := loadExpectedSuite()
	if err != nil {
		return nil, err
	}
	w := &suiteCold{cfg: cfg, compiler: newCompiler(true), progs: suitePrograms(), expected: exp, lastDoall: map[string]int{}}
	if out := w.op(0, warmupOp, nil); !out.ok {
		return nil, fmt.Errorf("warm-up operation failed")
	}
	return w, nil
}

// op compiles all 16 paper-suite programs, each behind a fresh comment
// tag, to Fortran and to Go.
func (w *suiteCold) op(_, i int, tr *opSpans) opOutcome {
	srcs := make([]string, len(w.progs))
	lines := 0
	for k, p := range w.progs {
		srcs[k] = variant(p.source, w.cfg.seed, "suite", i*len(w.progs)+k)
		lines += p.lines
	}
	results := make([]*polaris.Result, len(w.progs))
	var failed error
	start, root := openOp(tr)
	for k, p := range w.progs {
		res, err := w.analyse(tr, root, p, srcs[k])
		if err == nil {
			_, err = w.emit(tr, root, p, res)
		}
		if err != nil {
			failed = err
			break
		}
		results[k] = res
	}
	dur := closeOp(tr, start)
	ok := failed == nil
	for k, p := range w.progs {
		if results[k] == nil {
			continue
		}
		doall, lrpd := doallOrLRPD(results[k])
		w.lastDoall[p.name] = doall + lrpd
		if e := w.expected[p.name]; doall != e.Doall || lrpd != e.LRPD {
			ok = false
		}
	}
	return opOutcome{dur: dur, lines: lines, ok: ok}
}

func (w *suiteCold) collect(ph *phase, v values) error {
	w.rows(ph, v)
	for _, n := range w.lastDoall {
		v["doall_loops"] += float64(n)
	}
	units := 0
	for _, p := range w.progs {
		n, err := countUnits(p.source)
		if err != nil {
			return err
		}
		units += n
	}
	if ph.tracedOps > 0 {
		v["parser.units"] = float64(units)
	}
	return nil
}

// verify runs the independent oracle over every program, compares each
// program's verdict counts with the hand-reviewed expected file, and
// computes the Figure 7 quantity on the simulated 8-processor machine.
func (w *suiteCold) verify(v values) []string {
	var bad []string
	logSpeedup := 0.0
	var cycles int64
	for _, p := range w.progs {
		ds, err := oracle.Check(w.ctx, p.name, p.source, oracle.Config{
			Tolerance: 1e-9, SkipAblation: true, SkipMetamorphic: true, SkipMinimize: true})
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: oracle: %v", p.name, err))
		}
		for _, d := range ds {
			bad = append(bad, fmt.Sprintf("%s: oracle mode %s: %s", p.name, d.Mode, d.Detail))
		}
		e, known := w.expected[p.name]
		if !known {
			bad = append(bad, fmt.Sprintf("%s: not in %s", p.name, expectedSuiteFile))
			continue
		}
		prog, err := polaris.Parse(p.source)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: parse: %v", p.name, err))
			continue
		}
		res, err := polaris.Compile(w.ctx, prog)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: compile: %v", p.name, err))
			continue
		}
		doall, lrpd := doallOrLRPD(res)
		if len(res.Loops) != e.Loops || doall != e.Doall || lrpd != e.LRPD {
			bad = append(bad, fmt.Sprintf("%s: loops/DOALL/LRPD = %d/%d/%d, %s says %d/%d/%d",
				p.name, len(res.Loops), doall, lrpd, expectedSuiteFile, e.Loops, e.Doall, e.LRPD))
		}
		t0 := time.Now()
		serial, err1 := polaris.ExecuteProgram(prog, polaris.ExecOptions{Serial: true})
		par, err2 := polaris.Execute(res, polaris.ExecOptions{Processors: 8})
		v["interp.busy_s"] += time.Since(t0).Seconds()
		if err1 != nil || err2 != nil {
			bad = append(bad, fmt.Sprintf("%s: simulate: %v %v", p.name, err1, err2))
			continue
		}
		cycles += serial.Cycles + par.Cycles
		logSpeedup += math.Log(float64(serial.Cycles) / float64(par.Cycles))
	}
	v["interp.sim_cycles"] = float64(cycles)
	v["sim_speedup_geomean"] = math.Exp(logSpeedup / float64(len(w.progs)))
	return bad
}

// ---- mega_cold ----

type megaCold struct {
	*compiler
	cfg   runConfig
	prog  program
	units int
	pins  expectedMega
	// first is the first operation's result and output, kept for the
	// gate; sum is the SHA-256 every operation's output must share.
	first       *polaris.Result
	firstOutput string
	sum         [sha256.Size]byte
	sumsDiffer  bool
}

func setupMegaCold(cfg runConfig, _ int) (instance, error) {
	pins, err := loadExpectedMega()
	if err != nil {
		return nil, err
	}
	prog, units, err := megaProgram()
	if err != nil {
		return nil, err
	}
	w := &megaCold{cfg: cfg, compiler: newCompiler(false), prog: prog, units: units, pins: pins}
	if out := w.op(0, warmupOp, nil); !out.ok {
		return nil, fmt.Errorf("warm-up operation failed")
	}
	return w, nil
}

// op compiles the megaprogram from source text to Fortran with the
// default unit worker pool.
func (w *megaCold) op(_, i int, tr *opSpans) opOutcome {
	src := variant(w.prog.source, w.cfg.seed, "mega", i)
	start, root := openOp(tr)
	var out string
	res, err := w.analyse(tr, root, w.prog, src)
	if err == nil {
		out, err = w.emit(tr, root, w.prog, res)
	}
	dur := closeOp(tr, start)
	if err != nil {
		return opOutcome{dur: dur}
	}
	sum := codeSum(out)
	if w.first == nil {
		w.sum, w.first, w.firstOutput = sum, res, out
	} else if sum != w.sum {
		w.sumsDiffer = true
	}
	return opOutcome{dur: dur, lines: w.prog.lines, ok: sum == w.sum}
}

func (w *megaCold) collect(ph *phase, v values) error {
	w.rows(ph, v)
	doall, lrpd := doallOrLRPD(w.first)
	v["doall_loops"] = float64(doall + lrpd)
	if ph.tracedOps > 0 {
		v["parser.units"] = float64(w.units)
	}
	return nil
}

// verify pins what the pipeline finds in the megaprogram, re-parses
// the emitted Fortran, and requires every operation to have produced
// the same bytes (codeSum).
func (w *megaCold) verify(values) []string {
	var bad []string
	if w.sumsDiffer {
		bad = append(bad, "emitted Fortran differs between operations")
	}
	if _, err := polaris.Parse(w.firstOutput); err != nil {
		bad = append(bad, fmt.Sprintf("emitted Fortran does not re-parse: %v", err))
	}
	units, err := countUnits(w.prog.source)
	if err != nil {
		bad = append(bad, err.Error())
	}
	doall, lrpd := doallOrLRPD(w.first)
	var consts int64
	for _, ev := range w.first.Report.Events {
		if ev.Pass == "interproc-constants" {
			consts = ev.Mutations["constants_propagated"]
		}
	}
	got := expectedMega{Units: units, Lines: w.prog.lines, Loops: len(w.first.Loops), Doall: doall, LRPD: lrpd,
		Inlined: w.first.InlinedCalls, InterprocConstants: int(consts)}
	if got != w.pins {
		bad = append(bad, fmt.Sprintf("%s compiles to %+v, %s pins %+v", megaName, got, expectedMegaFile, w.pins))
	}
	return bad
}

// ---- edit_loop ----

type editLoop struct {
	*compiler
	cfg   runConfig
	memo  *polaris.UnitMemo
	prog  program
	units int
	edits *editSeq
	// at set-up, for the phase deltas
	memo0 polaris.MemoStats
	// firstEdit and lastEdit are the edited sources the gate recompiles
	// from scratch; doall is the count the latest compile reported.
	firstEdit, lastEdit string
	doall               int
	recompiledNotOne    int
}

func setupEditLoop(cfg runConfig, _ int) (instance, error) {
	prog, units, err := megaProgram()
	if err != nil {
		return nil, err
	}
	memo := polaris.NewUnitMemo(0, 0)
	w := &editLoop{cfg: cfg, compiler: newCompiler(false, polaris.WithIncremental(memo)), memo: memo,
		prog: prog, units: units, edits: newEditSeq(cfg.seed)}
	// Warm the memo with the unedited program: every later edit then
	// finds all units but its own already compiled.
	base, err := polaris.Parse(prog.source)
	if err != nil {
		return nil, err
	}
	if _, err := polaris.Compile(w.ctx, base, w.opts...); err != nil {
		return nil, err
	}
	if out := w.op(0, warmupOp, nil); !out.ok {
		return nil, fmt.Errorf("warm-up operation failed")
	}
	w.firstEdit, w.recompiledNotOne = "", 0
	w.memo0 = memo.Stats()
	return w, nil
}

// op is one edit-compile cycle: one unit of the megaprogram changes,
// the whole source is parsed again, and the compile reuses every
// other unit from the warm memo.
func (w *editLoop) op(_, _ int, tr *opSpans) opOutcome {
	e := w.edits.next()
	src, unit := fuzzgen.EditOneUnit(w.prog.source, e.unit, e.tag)
	if unit == "" {
		return opOutcome{}
	}
	if w.firstEdit == "" {
		w.firstEdit = src
	}
	w.lastEdit = src
	start, root := openOp(tr)
	res, err := w.analyse(tr, root, w.prog, src)
	dur := closeOp(tr, start)
	if err != nil {
		return opOutcome{dur: dur}
	}
	doall, lrpd := doallOrLRPD(res)
	w.doall = doall + lrpd
	if res.UnitsRecompiled != 1 {
		w.recompiledNotOne++
	}
	return opOutcome{dur: dur, lines: w.prog.lines, ok: res.UnitsRecompiled == 1}
}

func (w *editLoop) collect(ph *phase, v values) error {
	w.rows(ph, v)
	v["doall_loops"] = float64(w.doall)
	ms := w.memo.Stats()
	if lookups := (ms.Hits - w.memo0.Hits) + (ms.Misses - w.memo0.Misses); lookups > 0 {
		v["memo.hit_ratio"] = float64(ms.Hits-w.memo0.Hits) / float64(lookups)
	}
	v["memo.bytes"] = float64(ms.Bytes)
	v["memo.evictions"] = float64(ms.Evictions - w.memo0.Evictions)
	if ph.tracedOps > 0 {
		v["parser.units"] = float64(w.units)
	}
	return nil
}

// verify requires exactly one recompiled unit on every edit, and
// byte-identical Fortran (codeSum) from the memo-backed
// compile and a from-scratch compile of the first and the last edited
// source.
func (w *editLoop) verify(values) []string {
	var bad []string
	if w.recompiledNotOne > 0 {
		bad = append(bad, fmt.Sprintf("%d edits recompiled a number of units other than 1", w.recompiledNotOne))
	}
	for _, src := range []string{w.firstEdit, w.lastEdit} {
		var out [2][sha256.Size]byte
		for k, opts := range [][]polaris.Option{w.opts, nil} {
			prog, err := polaris.Parse(src)
			if err != nil {
				return append(bad, err.Error())
			}
			res, err := polaris.Compile(w.ctx, prog, opts...)
			if err != nil {
				return append(bad, err.Error())
			}
			var b strings.Builder
			if err := res.Emit(&b, polaris.EmitFortran); err != nil {
				return append(bad, err.Error())
			}
			out[k] = codeSum(b.String())
		}
		if out[0] != out[1] {
			bad = append(bad, "incremental and from-scratch compiles of an edited source emit different Fortran")
		}
		if w.firstEdit == w.lastEdit {
			break
		}
	}
	return bad
}
