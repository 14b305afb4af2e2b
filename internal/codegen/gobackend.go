package codegen

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"polaris/internal/core"
	"polaris/internal/ir"
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
// name bindings (with worker-local overrides inside parallel bodies),
// and the parallel-nesting state.
type uctx struct {
	u     *ir.ProgramUnit
	par   string // expression for the par_ argument at call sites
	inPar bool   // inside a worker or speculative body: loops emit serial-only
	sc    map[string]scEntry
	ar    map[string]arEntry
	spec  map[string]*specInfo
	red   map[*ir.AssignStmt]*redStmtInfo
	wVar  string // worker-index variable, for reduction log appends
}

func (c *uctx) clone() *uctx {
	d := &uctx{u: c.u, par: c.par, inPar: c.inPar, wVar: c.wVar,
		sc: make(map[string]scEntry, len(c.sc)), ar: make(map[string]arEntry, len(c.ar))}
	for k, v := range c.sc {
		d.sc[k] = v
	}
	for k, v := range c.ar {
		d.ar[k] = v
	}
	return d
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

	b   strings.Builder
	ind int
	tmp int

	commons   []*commonMember
	commonIdx map[string]*commonMember
}

// goPerSourceByte is what EmitGo's buffer, sized up front, allows per
// byte of Fortran source past the fixed runtime. The suite lowers 6 to
// 21 bytes of Go per source byte; at 12 all but three programs fit, and
// those grow once, which allocates less across the suite than sizing
// every program for TRFD's closed forms. A builder left to grow
// allocated some five times the program it delivered.
const goPerSourceByte = 12

// EmitGo lowers a compiled result to a standalone Go program that
// reproduces the reference interpreter's serial semantics exactly and
// exploits the pipeline's parallelization verdicts: DOALL loops become
// bounded goroutine teams over contiguous index blocks, reductions
// become per-worker contribution logs replayed in serial iteration
// order after the barrier, privatized variables become worker-local
// copies, and LRPD loops run speculatively on per-worker array copies
// with the shadow PD test inlined and serial re-execution on failure.
//
// A program using constructs the subset cannot lower exactly yields an
// *UnsupportedError.
func EmitGo(res *core.Result, opt GoOptions) (src string, err error) {
	defer func() {
		if v := recover(); v != nil {
			if ue, ok := v.(*UnsupportedError); ok {
				src, err = "", ue
				return
			}
			panic(v)
		}
	}()
	if res == nil || res.Program == nil {
		return "", &UnsupportedError{Reason: "no program"}
	}
	if opt.Processors <= 0 {
		opt.Processors = 8
	}
	g := &goEmitter{res: res, p: res.Program, opt: opt, commonIdx: map[string]*commonMember{}}
	size := len(goRuntime)
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
	return g.b.String(), nil
}

// ---- output helpers ----

func (g *goEmitter) w(format string, args ...any) {
	for i := 0; i < g.ind; i++ {
		g.b.WriteByte('\t')
	}
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
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
	return fmt.Sprintf("%s%d", prefix, g.tmp)
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
	g.b.WriteString(goRuntime)
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
				varName:  fmt.Sprintf("c%d_%s_%s", i, mangled(sym.Common), mangled(name)),
				flagName: fmt.Sprintf("b%d_%s_%s", i, mangled(sym.Common), mangled(name)),
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
	set := map[string]bool{}
	add := func(name string) {
		if arraySym(u, name) == nil {
			set[name] = true
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
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (g *goEmitter) unit(u *ir.ProgramUnit) {
	c := &uctx{u: u, par: "par_", sc: map[string]scEntry{}, ar: map[string]arEntry{}}

	// Signature.
	var sig strings.Builder
	fmt.Fprintf(&sig, "func u_%s(par_ bool", u.Name)
	for _, f := range u.Formals {
		if sym := arraySym(u, f); sym != nil {
			fmt.Fprintf(&sig, ", %s arr", f)
			c.ar[f] = arEntry{ex: f, isInt: sym.Type == ir.TypeInteger}
		} else {
			k := scalarKind(u, f)
			fmt.Fprintf(&sig, ", %s *%s", f, goType(k))
			c.sc[f] = scEntry{lv: "(*" + f + ")", addr: f, k: k}
		}
	}
	sig.WriteString(")")
	retKind := gF
	if u.Kind == ir.UnitFunction {
		retKind = scalarKind(u, u.Name)
		fmt.Fprintf(&sig, " %s", goType(retKind))
	}
	g.open("%s {", sig.String())

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
		rhs, rk := g.expr(c, sym.Param)
		g.w("%s = %s", e.lv, convTo(e.k, rhs, rk))
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
				lo, sz := g.dimExprs(c, sym, name)
				g.w("%s = mkarr(%v, []int64{%s}, []int64{%s})",
					m.varName, sym.Type == ir.TypeInteger, strings.Join(lo, ", "), strings.Join(sz, ", "))
				g.w("%s = true", m.flagName)
				g.close("}")
			} else {
				g.w("%s = true", m.flagName)
			}
		case sym.Formal && sym.IsArray():
			g.w("%s = rshp(%s, []rdim{", name, name)
			g.ind++
			for _, d := range sym.Dims {
				loFn := g.rdimFn(c, d.LoOr1())
				if d.Hi == nil {
					g.w("{lo: %s, assumed: true},", loFn)
				} else {
					g.w("{lo: %s, hi: %s},", loFn, g.rdimFn(c, d.Hi))
				}
			}
			g.ind--
			g.w("})")
		case !sym.Formal && sym.IsArray() && sym.Param == nil:
			lo, sz := g.dimExprs(c, sym, name)
			g.w("%s := mkarr(%v, []int64{%s}, []int64{%s})",
				name, sym.Type == ir.TypeInteger, strings.Join(lo, ", "), strings.Join(sz, ", "))
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

// dimExprs renders the lower bounds and extents of a non-formal array
// declaration, evaluated in declarator order (lo then hi per
// dimension). Assumed-size dimensions on non-formals are an
// interpreter runtime error; refusing keeps the program skippable.
func (g *goEmitter) dimExprs(c *uctx, sym *ir.Symbol, name string) (lo, sz []string) {
	if len(sym.Dims) > 7 {
		refuse("array %s has rank %d > 7", name, len(sym.Dims))
	}
	for _, d := range sym.Dims {
		if d.Hi == nil {
			refuse("assumed-size declarator on non-formal array %s", name)
		}
		lv := g.nt("d")
		g.w("%s := %s", lv, g.exprI(c, d.LoOr1()))
		hv := g.nt("d")
		g.w("%s := %s", hv, g.exprI(c, d.Hi))
		lo = append(lo, lv)
		sz = append(sz, fmt.Sprintf("%s - %s + 1", hv, lv))
	}
	return lo, sz
}

// rdimFn renders one bound of a formal-array reshape as a closure that
// reports evaluation failure instead of aborting, replicating
// reshapeView's keep-the-actual-shape fallback.
func (g *goEmitter) rdimFn(c *uctx, e ir.Expr) string {
	return fmt.Sprintf("func() (v int64, ok bool) { defer func() { _ = recover() }(); v = %s; ok = true; return }",
		g.exprI(c, e))
}

// ---- literals and conversions ----

func goFloatLit(v float64) string {
	switch {
	case math.IsNaN(v):
		return "math.NaN()"
	case math.IsInf(v, 1):
		return "math.Inf(1)"
	case math.IsInf(v, -1):
		return "math.Inf(-1)"
	case v == 0 && math.Signbit(v):
		return "math.Copysign(0, -1)"
	}
	return "float64(" + strconv.FormatFloat(v, 'g', -1, 64) + ")"
}

// convTo converts a rendered value of kind rk to storage kind k with
// the interpreter's cell.store rules (AsInt truncates toward zero; Go's
// float-to-int conversion is the same operation the interpreter runs).
func convTo(k gKind, s string, rk gKind) string {
	if k == rk {
		return s
	}
	switch {
	case k == gF && rk == gI:
		return "float64(" + s + ")"
	case k == gI && rk == gF:
		return "int64(" + s + ")"
	}
	refuse("logical/numeric kind mismatch in assignment")
	return ""
}
