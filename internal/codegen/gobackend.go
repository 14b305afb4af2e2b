package codegen

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"polaris/internal/core"
	"polaris/internal/ir"
	"polaris/internal/rt"
)

// GoOptions configures EmitGo.
type GoOptions struct {
	// Processors is the default worker-team size baked into the emitted
	// binary (overridable at run time with -p). Default 8.
	Processors int
	// Label names the program in the generated header.
	Label string
}

// UnsupportedError reports a construct outside the Go back end's
// supported subset. The emitter refuses rather than approximate: every
// program it does emit reproduces the reference interpreter's serial
// semantics bit for bit, so the native oracle can compare at tolerance
// zero. Callers (the oracle, the CLI) treat it as "skip", never as a
// discrepancy.
type UnsupportedError struct {
	Reason string
}

// Error implements error.
func (e *UnsupportedError) Error() string {
	return "codegen: unsupported for Go emission: " + e.Reason
}

func refuse(format string, args ...any) {
	panic(&UnsupportedError{Reason: fmt.Sprintf(format, args...)})
}

// gKind is the static value kind of the emitted subset. The reference
// interpreter is dynamically kinded; the refusal rules in this file
// reject exactly the programs where a cell's dynamic kind could diverge
// from its declared one, which is what makes static emission exact.
type gKind int

const (
	gI gKind = iota // int64
	gF              // float64
	gB              // bool
)

func goType(k gKind) string {
	switch k {
	case gI:
		return "int64"
	case gB:
		return "bool"
	}
	return "float64"
}

func kindOfType(t ir.Type) gKind {
	switch t {
	case ir.TypeInteger:
		return gI
	case ir.TypeLogical:
		return gB
	}
	// TypeReal and TypeUnknown cells both store through AsFloat.
	return gF
}

// scEntry is one scalar binding: the Go lvalue it renders to and the
// expression taking its address (for aliased actual arguments).
type scEntry struct {
	lv   string
	addr string
	k    gKind
}

// arEntry is one array binding: the Go variable holding the arr value
// (always addressable) and its element kind.
type arEntry struct {
	ex    string
	isInt bool
}

// specInfo marks an array as speculatively accessed inside an LRPD
// worker: accesses go to the per-worker copy through the shadow.
type specInfo struct {
	copyVar string // per-worker deep copy
	shVar   string // per-worker shadow
	iter    string // 1-based iteration expression
}

// uctx is the emission context for one statement region: the unit, the
// name bindings, and the parallel-nesting state. A context inside a
// parallel body binds only its worker-local overrides and reads every
// other name through outer, the unit's context.
type uctx struct {
	u     *ir.ProgramUnit
	par   string // expression for the par_ argument at call sites
	inPar bool   // inside a worker or speculative body: loops emit serial-only
	sc    map[string]scEntry
	ar    map[string]arEntry
	outer *uctx
	spec  map[string]*specInfo
	reds  []*redTarget // a worker's reductions, whose updates it logs
	wVar  string       // worker-index variable, for reduction log appends
}

// inner is a context for a parallel body of c: loops inside emit
// serial-only, and calls pass par_=false (the interpreter's inDoall).
func (c *uctx) inner() *uctx {
	return &uctx{u: c.u, par: "false", inPar: true, outer: c}
}

func (c *uctx) scalarAt(name string) (scEntry, bool) {
	for ; c != nil; c = c.outer {
		if e, ok := c.sc[name]; ok {
			return e, true
		}
	}
	return scEntry{}, false
}

func (c *uctx) arrayAt(name string) (arEntry, bool) {
	for ; c != nil; c = c.outer {
		if e, ok := c.ar[name]; ok {
			return e, true
		}
	}
	return arEntry{}, false
}

// commonMember is one (block, name) COMMON entry. Storage is allocated
// lazily by the first unit prologue that executes (first-bind-wins, as
// the interpreter's bindCommon), but the declared type must agree
// across units for static emission to be exact.
type commonMember struct {
	block, name string
	sym         *ir.Symbol
	varName     string // c<N>_<blk>_<name> (index keeps mangling unique)
	flagName    string
}

func (m *commonMember) stateKey() string { return m.block + "." + m.name }

type goEmitter struct {
	res *core.Result
	p   *ir.Program
	opt GoOptions

	out     strings.Builder  // the program
	rtAt    int              // where in out the runtime belongs; -1: out holds it
	b       *strings.Builder // where writes go: out, or aside
	aside   strings.Builder  // lowering whose text nothing reads
	scratch []byte           // formatting of numbers and quoted strings
	ind     int
	tmp     int

	commons   []*commonMember
	commonIdx map[string]*commonMember
}

// goPerSourceByte is what the emitter's buffer, sized up front, allows
// per byte of Fortran source, past the runtime when the buffer holds it.
// The suite lowers 6 to 21 bytes of Go per source byte; at 12 all but
// three programs fit, and those grow once, which allocates less across
// the suite than sizing every program for TRFD's closed forms. A builder
// left to grow allocated some five times the program it delivered.
const goPerSourceByte = 12

// EmitGo lowers a compiled result to a standalone Go program that
// reproduces the reference interpreter's serial semantics exactly and
// exploits the pipeline's parallelization verdicts: DOALL loops become
// bounded goroutine teams over contiguous index blocks, reductions
// become per-worker contribution logs replayed in serial iteration
// order after the barrier, privatized variables become worker-local
// copies, and LRPD loops run speculatively on per-worker array copies
// with the shadow PD test inlined and serial re-execution on failure.
// The program, runtime included, is built in one buffer, which is the
// string returned.
//
// A program using constructs the subset cannot lower exactly yields an
// *UnsupportedError.
func EmitGo(res *core.Result, opt GoOptions) (string, error) {
	g, err := lowerGo(res, opt, true)
	if err != nil {
		return "", err
	}
	return g.out.String(), nil
}

// WriteGo writes what EmitGo returns to w: the per-program text is
// built in a buffer of its own, and the runtime goes to w straight from
// rt.Runtime, between that text's head and tail: three Writes, and a
// *strings.Builder is grown once by the whole program first. A program
// the back end refuses writes nothing and yields the *UnsupportedError.
func WriteGo(w io.Writer, res *core.Result, opt GoOptions) error {
	g, err := lowerGo(res, opt, false)
	if err != nil {
		return err
	}
	text := g.out.String()
	if b, ok := w.(*strings.Builder); ok {
		b.Grow(len(text) + len(rt.Runtime))
	}
	for _, s := range [...]string{text[:g.rtAt], rt.Runtime, text[g.rtAt:]} {
		if _, err := io.WriteString(w, s); err != nil {
			return err
		}
	}
	return nil
}

// lowerGo renders res into a new emitter's buffer. With inline set the
// buffer takes rt.Runtime after the const defaultProcs line; otherwise
// the emitter records that offset in rtAt and leaves the runtime out.
func lowerGo(res *core.Result, opt GoOptions, inline bool) (g *goEmitter, err error) {
	defer func() {
		if v := recover(); v != nil {
			if ue, ok := v.(*UnsupportedError); ok {
				g, err = nil, ue
				return
			}
			panic(v)
		}
	}()
	if res == nil || res.Program == nil {
		return nil, &UnsupportedError{Reason: "no program"}
	}
	if opt.Processors <= 0 {
		opt.Processors = 8
	}
	g = &goEmitter{res: res, p: res.Program, opt: opt, commonIdx: map[string]*commonMember{}}
	g.b = &g.out
	size := 0
	if inline {
		g.rtAt = -1
		size = len(rt.Runtime)
	}
	for _, u := range res.Program.Units {
		size += goPerSourceByte * u.SourceLen()
	}
	g.b.Grow(size)
	g.collectCommons()
	g.header()
	g.stateCode()
	main := g.p.Main()
	if main == nil {
		refuse("program has no units")
	}
	if len(main.Formals) > 0 {
		refuse("main unit %s has formal arguments", main.Name)
	}
	g.w("func progMain() {")
	g.w("\tu_%s(true)", main.Name)
	g.w("}")
	g.w("")
	for _, u := range g.p.Units {
		g.unit(u)
	}
	return g, nil
}

// ---- output helpers ----

// w writes one line at the current indentation. The format takes %s and
// %q (a string), %d (an int or int64) and %v (a bool), and nothing else:
// w formats them straight into the buffer, and its arguments do not
// escape, so a call allocates nothing of its own.
func (g *goEmitter) w(format string, args ...any) {
	g.indent()
	for len(format) > 0 {
		i := strings.IndexByte(format, '%')
		if i < 0 {
			g.b.WriteString(format)
			break
		}
		g.b.WriteString(format[:i])
		verb, arg := format[i+1], args[0]
		format, args = format[i+2:], args[1:]
		switch verb {
		case 's':
			g.b.WriteString(arg.(string))
		case 'q':
			g.scratch = strconv.AppendQuote(g.scratch[:0], arg.(string))
			g.b.Write(g.scratch)
		case 'd':
			switch v := arg.(type) {
			case int:
				g.int(int64(v))
			case int64:
				g.int(v)
			default:
				panic("codegen: %d of a non-integer")
			}
		case 'v':
			g.b.WriteString(strconv.FormatBool(arg.(bool)))
		default:
			panic("codegen: unsupported verb in an emitter format")
		}
	}
	g.b.WriteByte('\n')
}

func (g *goEmitter) indent() {
	const tabs = "\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t\t"
	for n := g.ind; n > 0; n -= len(tabs) {
		g.b.WriteString(tabs[:min(n, len(tabs))])
	}
}

// put writes its strings one after another, on the current line.
func (g *goEmitter) put(parts ...string) { writeAll(g.b, parts...) }

func (g *goEmitter) int(v int64) {
	g.scratch = strconv.AppendInt(g.scratch[:0], v, 10)
	g.b.Write(g.scratch)
}

func (g *goEmitter) open(format string, args ...any) {
	g.w(format, args...)
	g.ind++
}

func (g *goEmitter) close(format string, args ...any) {
	g.ind--
	g.w(format, args...)
}

// nt returns a fresh lowercase temporary name. Generated names never
// collide with Fortran identifiers (uppercase) or runtime helpers (no
// helper ends in a digit except ix1..ix7, and "ix" is not a prefix
// used here).
func (g *goEmitter) nt(prefix string) string {
	g.tmp++
	g.scratch = strconv.AppendInt(append(g.scratch[:0], prefix...), int64(g.tmp), 10)
	return string(g.scratch)
}

// ---- program scaffolding ----

func (g *goEmitter) header() {
	g.w("// Code generated by polaris (Go reproduction of the Polaris restructurer). DO NOT EDIT.")
	if g.opt.Label != "" {
		g.w("// program: %s", g.opt.Label)
	}
	for _, lr := range g.res.Loops {
		status := "serial"
		switch {
		case lr.Parallel:
			status = "parallel"
		case len(lr.RunTimeTest) > 0:
			status = "run-time test"
		}
		g.w("// %s: DO %s -> %s (%s)", lr.Unit, lr.Index, status, lr.Reason)
	}
	g.w("package main")
	g.w("")
	g.w("import (")
	g.w("\t\"flag\"")
	g.w("\t\"fmt\"")
	g.w("\t\"math\"")
	g.w("\t\"runtime\"")
	g.w("\t\"strconv\"")
	g.w("\t\"sync\"")
	g.w("\t\"time\"")
	g.w(")")
	g.w("")
	g.w("var _ = math.Abs")
	g.w("")
	g.w("const defaultProcs = %d", g.opt.Processors)
	if g.rtAt < 0 {
		g.b.WriteString(rt.Runtime)
	} else {
		g.rtAt = g.out.Len()
	}
	g.w("")
}

// collectCommons registers every COMMON member across units and
// enforces the cross-unit consistency static emission needs: the same
// (block, name) must be declared with one type and one scalar/array
// shape everywhere (the interpreter's first-bind-wins storage would
// otherwise make a member's representation depend on execution order).
// Dimension declarators may differ; they are evaluated by whichever
// unit binds first, exactly as bindCommon does.
func (g *goEmitter) collectCommons() {
	for _, u := range g.p.Units {
		for _, sym := range u.Symbols.All() {
			name := sym.Name
			if sym.Common == "" {
				continue
			}
			key := sym.Common + "\x00" + name
			if prev, ok := g.commonIdx[key]; ok {
				if prev.sym.IsArray() != sym.IsArray() {
					refuse("COMMON %s.%s is both scalar and array across units", sym.Common, name)
				}
				if kindOfType(prev.sym.Type) != kindOfType(sym.Type) {
					refuse("COMMON %s.%s declared with different types across units", sym.Common, name)
				}
				continue
			}
			i := len(g.commons)
			m := &commonMember{
				block: sym.Common, name: name, sym: sym,
				varName:  "c" + strconv.Itoa(i) + "_" + mangled(sym.Common) + "_" + mangled(name),
				flagName: "b" + strconv.Itoa(i) + "_" + mangled(sym.Common) + "_" + mangled(name),
			}
			g.commons = append(g.commons, m)
			g.commonIdx[key] = m
		}
	}
}

func mangled(name string) string {
	var b strings.Builder
	for _, r := range name {
		if r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r >= 'a' && r <= 'z' {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// stateCode emits the COMMON globals, resetState, and printState — the
// exact observable state protocol of interp.CommonState: sorted
// "BLOCK.NAME" keys, scalars through AsFloat (a logical scalar prints
// 0: BoolVal carries no float part), arrays flattened column-major.
func (g *goEmitter) stateCode() {
	g.w("var (")
	for _, m := range g.commons {
		if m.sym.IsArray() {
			g.w("\t%s arr", m.varName)
		} else {
			g.w("\t%s %s", m.varName, goType(kindOfType(m.sym.Type)))
		}
		g.w("\t%s bool", m.flagName)
	}
	g.w(")")
	g.w("")
	g.open("func resetState() {")
	for _, m := range g.commons {
		if m.sym.IsArray() {
			g.w("%s = arr{}", m.varName)
		} else {
			switch kindOfType(m.sym.Type) {
			case gI:
				g.w("%s = 0", m.varName)
			case gB:
				g.w("%s = false", m.varName)
			default:
				g.w("%s = 0", m.varName)
			}
		}
		g.w("%s = false", m.flagName)
	}
	g.close("}")
	g.w("")
	sorted := append([]*commonMember(nil), g.commons...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].stateKey() < sorted[j].stateKey() })
	g.open("func printState() {")
	for _, m := range sorted {
		g.open("if %s {", m.flagName)
		switch {
		case m.sym.IsArray():
			g.w("stLine(%q, flatF(%s))", m.stateKey(), m.varName)
		case kindOfType(m.sym.Type) == gI:
			g.w("stLine(%q, []float64{float64(%s)})", m.stateKey(), m.varName)
		case kindOfType(m.sym.Type) == gB:
			g.w("stLine(%q, []float64{0})", m.stateKey())
		default:
			g.w("stLine(%q, []float64{%s})", m.stateKey(), m.varName)
		}
		g.close("}")
	}
	g.close("}")
	g.w("")
}

// ---- unit emission ----

// scalarKind is the cell kind the interpreter would give name in u:
// declared type if present, Fortran implicit rule otherwise.
func scalarKind(u *ir.ProgramUnit, name string) gKind {
	if sym := u.Symbols.Lookup(name); sym != nil {
		return kindOfType(sym.Type)
	}
	return kindOfType(ir.ImplicitType(name))
}

func arraySym(u *ir.ProgramUnit, name string) *ir.Symbol {
	if sym := u.Symbols.Lookup(name); sym != nil && sym.IsArray() {
		return sym
	}
	return nil
}

// collectScalars gathers every name the unit can touch as a scalar
// cell: declared non-array symbols, every VarRef, every DO index, and
// the function result. Names that are array symbols are excluded (a
// VarRef to one is refused at its use site).
func collectScalars(u *ir.ProgramUnit) []string {
	set := map[string]bool{} // name → a scalar, each name looked up once
	add := func(name string) {
		if _, seen := set[name]; !seen {
			set[name] = arraySym(u, name) == nil
		}
	}
	for _, sym := range u.Symbols.All() {
		name := sym.Name
		if !sym.IsArray() {
			add(name)
		}
	}
	if u.Kind == ir.UnitFunction {
		add(u.Name)
	}
	ir.WalkStmts(u.Body, func(s ir.Stmt) bool {
		if d, ok := s.(*ir.DoStmt); ok {
			add(d.Index)
		}
		for _, e := range ir.StmtExprs(s) {
			ir.WalkExpr(e, func(n ir.Expr) bool {
				if v, ok := n.(*ir.VarRef); ok {
					add(v.Name)
				}
				return true
			})
		}
		return true
	})
	// PARAMETER declarators may reference names too, but params are
	// symbols and thus already present.
	names := make([]string, 0, len(set))
	for n, scalar := range set {
		if scalar {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

func (g *goEmitter) unit(u *ir.ProgramUnit) {
	c := &uctx{u: u, par: "par_", sc: map[string]scEntry{}, ar: map[string]arEntry{}}

	// Signature.
	g.indent()
	g.put("func u_", u.Name, "(par_ bool")
	for _, f := range u.Formals {
		if sym := arraySym(u, f); sym != nil {
			g.put(", ", f, " arr")
			c.ar[f] = arEntry{ex: f, isInt: sym.Type == ir.TypeInteger}
		} else {
			k := scalarKind(u, f)
			g.put(", ", f, " *", goType(k))
			c.sc[f] = scEntry{lv: "(*" + f + ")", addr: f, k: k}
		}
	}
	g.put(")")
	if u.Kind == ir.UnitFunction {
		g.put(" ", goType(scalarKind(u, u.Name)))
	}
	g.put(" {\n")
	g.ind++

	// Bindings for commons and locals.
	for _, sym := range u.Symbols.All() {
		name := sym.Name
		if sym.Common == "" {
			continue
		}
		m := g.commonIdx[sym.Common+"\x00"+name]
		if sym.IsArray() {
			c.ar[name] = arEntry{ex: m.varName, isInt: sym.Type == ir.TypeInteger}
		} else {
			c.sc[name] = scEntry{lv: m.varName, addr: "&" + m.varName, k: kindOfType(sym.Type)}
		}
	}
	var localScalars []string
	for _, name := range collectScalars(u) {
		if _, bound := c.sc[name]; bound {
			continue // formal or common
		}
		k := scalarKind(u, name)
		c.sc[name] = scEntry{lv: name, addr: "&" + name, k: k}
		localScalars = append(localScalars, name)
	}
	for _, name := range localScalars {
		g.w("var %s %s", name, goType(c.sc[name].k))
		g.w("_ = %s", name)
	}

	// Prologue pass 1: PARAMETER constants, in declaration order (their
	// expressions may reference formals and earlier parameters).
	for _, sym := range u.Symbols.All() {
		name := sym.Name
		if sym.Param == nil {
			continue
		}
		if sym.IsArray() {
			refuse("PARAMETER %s declared with dimensions", name)
		}
		e, bound := c.sc[name]
		if !bound {
			refuse("PARAMETER %s has no scalar binding", name)
		}
		g.indent()
		g.put(e.lv, " = ")
		g.store(c, sym.Param, e.k)
		g.put("\n")
	}

	// Prologue pass 2: COMMON wiring, formal reshapes, local arrays —
	// one declaration-order walk, as newFrame does.
	for _, sym := range u.Symbols.All() {
		name := sym.Name
		switch {
		case sym.Common != "":
			m := g.commonIdx[sym.Common+"\x00"+name]
			if sym.IsArray() {
				g.open("if !%s {", m.flagName)
				g.mkarr(c, sym, m.varName, " = ")
				g.w("%s = true", m.flagName)
				g.close("}")
			} else {
				g.w("%s = true", m.flagName)
			}
		case sym.Formal && sym.IsArray():
			g.w("%s = rshp(%s, []rdim{", name, name)
			g.ind++
			for _, d := range sym.Dims {
				g.indent()
				g.put("{lo: ")
				g.rdimFn(c, orOne(d.Lo))
				if d.Hi == nil {
					g.put(", assumed: true},\n")
				} else {
					g.put(", hi: ")
					g.rdimFn(c, d.Hi)
					g.put("},\n")
				}
			}
			g.ind--
			g.w("})")
		case !sym.Formal && sym.IsArray() && sym.Param == nil:
			g.mkarr(c, sym, name, " := ")
			g.w("_ = %s", name)
			c.ar[name] = arEntry{ex: name, isInt: sym.Type == ir.TypeInteger}
		}
	}

	g.block(c, u.Body)

	switch u.Kind {
	case ir.UnitFunction:
		g.w("return %s", u.Name)
	}
	g.close("}")
	g.w("")
}

// mkarr writes a non-formal array's declaration: its bounds into
// temporaries, evaluated in declarator order (lo then hi per
// dimension), then lhs assign mkarr(...). Assumed-size dimensions on
// non-formals are an interpreter runtime error; refusing keeps the
// program skippable.
func (g *goEmitter) mkarr(c *uctx, sym *ir.Symbol, lhs, assign string) {
	if len(sym.Dims) > 7 {
		refuse("array %s has rank %d > 7", sym.Name, len(sym.Dims))
	}
	var lo, hi [7]string
	for i, d := range sym.Dims {
		if d.Hi == nil {
			refuse("assumed-size declarator on non-formal array %s", sym.Name)
		}
		lo[i] = g.nt("d")
		g.intDef(c, lo[i], orOne(d.Lo))
		hi[i] = g.nt("d")
		g.intDef(c, hi[i], d.Hi)
	}
	g.indent()
	g.put(lhs, assign, "mkarr(", strconv.FormatBool(sym.Type == ir.TypeInteger), ", []int64{")
	for i := range sym.Dims {
		if i > 0 {
			g.put(", ")
		}
		g.put(lo[i])
	}
	g.put("}, []int64{")
	for i := range sym.Dims {
		if i > 0 {
			g.put(", ")
		}
		g.put(hi[i], " - ", lo[i], " + 1")
	}
	g.put("})\n")
}

// intDef writes "v := e" with e as an integer.
func (g *goEmitter) intDef(c *uctx, v string, e ir.Expr) {
	g.indent()
	g.put(v, " := ")
	g.exprI(c, e)
	g.put("\n")
}

// one is the value of an unwritten lower bound or DO step. It is only
// read: the back end never stores it into the IR, so every program
// shares it.
var one = ir.Int(1)

// orOne returns e, or one when e was not written (ir.Dim.LoOr1 and
// ir.DoStmt.StepOr1 without their fresh constant per call).
func orOne(e ir.Expr) ir.Expr {
	if e == nil {
		return one
	}
	return e
}

// rdimFn writes one bound of a formal-array reshape as a closure that
// reports evaluation failure instead of aborting, replicating
// reshapeView's keep-the-actual-shape fallback.
func (g *goEmitter) rdimFn(c *uctx, e ir.Expr) {
	g.put("func() (v int64, ok bool) { defer func() { _ = recover() }(); v = ")
	g.exprI(c, e)
	g.put("; ok = true; return }")
}

// ---- literals ----

func (g *goEmitter) floatLit(v float64) {
	switch {
	case math.IsNaN(v):
		g.put("math.NaN()")
	case math.IsInf(v, 1):
		g.put("math.Inf(1)")
	case math.IsInf(v, -1):
		g.put("math.Inf(-1)")
	case v == 0 && math.Signbit(v):
		g.put("math.Copysign(0, -1)")
	default:
		g.put("float64(")
		g.scratch = strconv.AppendFloat(g.scratch[:0], v, 'g', -1, 64)
		g.b.Write(g.scratch)
		g.put(")")
	}
}
