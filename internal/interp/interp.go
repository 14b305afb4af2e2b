package interp

import (
	"context"
	"fmt"

	"polaris/internal/ir"
	"polaris/internal/machine"
	"polaris/internal/obsv"
	"polaris/internal/rt"
)

// Interp executes a program on the simulated machine.
type Interp struct {
	Prog  *ir.Program
	Model machine.Model
	Cost  machine.Cost

	// Parallel enables DOALL/LRPD execution of annotated loops; when
	// false every loop runs serially (the baseline timing).
	Parallel bool
	// Validate runs a DOALL's iterations in reverse order, so
	// order-dependent loops produce different results than serial runs
	// (used by correctness tests). A speculative loop still runs
	// forward, one chunk after another.
	Validate bool
	// Concurrent runs a DOALL's chunks, the same ones the simulated
	// machine charges, on real goroutines (one per simulated
	// processor) with partial reductions merged at the join. The
	// cycle charge is the same as without it. A speculative loop still
	// runs forward, one chunk after another.
	Concurrent bool

	// work counts executed cycles (serial-equivalent total work).
	work int64
	// saved accumulates work - simulatedParallelTime per parallel
	// region (negative entries model failed speculation).
	saved int64
	// parallelWork counts the cycles executed inside successful parallel
	// regions (DOALL bodies and passing speculative runs). Its ratio to
	// work is the run's parallel-coverage fraction.
	parallelWork int64
	// loopStats accumulates per-loop execution metrics keyed by the
	// stable loop ID the analysis driver assigned (decision records use
	// the same IDs, so compile-time verdicts and runtime behaviour join).
	loopStats map[string]*obsv.LoopMetric

	// Stats.
	ParallelLoopExecs int64
	LRPDPasses        int64
	LRPDFailures      int64
	// LRPDBodyWork accumulates the sequential work of speculative loop
	// executions; LRPDTime the simulated time actually charged for
	// them (speculative attempt, plus the sequential re-execution on
	// failure). Their ratio gives the paper's loop-level Figure 6
	// curves.
	LRPDBodyWork int64
	LRPDTime     int64

	commons map[string]*commonBlock
	// Worker state (see newWorker): shadows are a speculative loop's
	// PD-test shadows, marked in iteration curIter; markCycles counts
	// the marking work.
	shadows    map[*Array]*rt.Shadow
	curIter    int64
	markCycles int64
	// redTargets/redUpdates count a parallel loop's reduction updates
	// for the blocked form's cost (see reductionOverhead).
	redTargets map[string]bool
	redUpdates int64
	// inDoall keeps loops nested in a worker serial.
	inDoall bool

	// depth guards runaway recursion through user calls.
	depth int
	// args is the stack evalCall evaluates a call's arguments onto and
	// pops them from when it returns; every worker has its own.
	args []Value

	// ctx cancels long-running executions; polled every ctxStride
	// statements. Parallel-loop workers get their own counter, so polling
	// never races.
	ctx   context.Context
	steps int64
}

// ctxStride is how many statements execute between cancellation polls:
// frequent enough for prompt cancellation, cheap enough to vanish in
// the interpreter's per-statement cost.
const ctxStride = 1024

type commonBlock struct {
	arrays  map[string]*Array
	scalars map[string]*cell
}

// New returns an interpreter for the program.
func New(prog *ir.Program, model machine.Model) *Interp {
	return &Interp{
		Prog:    prog,
		Model:   model,
		Cost:    machine.DefaultCost(),
		commons: map[string]*commonBlock{},
	}
}

// Work returns total executed cycles (serial-equivalent).
func (in *Interp) Work() int64 { return in.work }

// Time returns the simulated execution time in cycles, including the
// machine's code-generation quality factor.
func (in *Interp) Time() int64 {
	t := in.work - in.saved
	return int64(float64(t) * in.Model.CodegenFactor)
}

func (in *Interp) charge(n int64) { in.work += n }

// ParallelWork returns the cycles executed inside successful parallel
// regions; ParallelWork()/Work() is the parallel-coverage fraction.
func (in *Interp) ParallelWork() int64 { return in.parallelWork }

// Coverage returns the fraction of total work executed in parallel
// regions (0 when nothing ran).
func (in *Interp) Coverage() float64 {
	if in.work == 0 {
		return 0
	}
	return float64(in.parallelWork) / float64(in.work)
}

// recordLoop accumulates one parallel-region execution into the
// per-loop metrics. kind is "doall" or "lrpd"; bodyWork is the
// serial-equivalent body work, parTime the simulated parallel time.
func (in *Interp) recordLoop(d *ir.DoStmt, kind string, bodyWork, parTime int64) *obsv.LoopMetric {
	if in.loopStats == nil {
		in.loopStats = map[string]*obsv.LoopMetric{}
	}
	key := d.ID
	if key == "" {
		key = "DO " + d.Index
	}
	lm := in.loopStats[key]
	if lm == nil {
		lm = &obsv.LoopMetric{Loop: key, Kind: kind}
		in.loopStats[key] = lm
	}
	lm.Execs++
	lm.SerialCycles += bodyWork
	lm.ParallelCycles += parTime
	return lm
}

// Metrics summarizes the run as an obsv.RunMetrics record: total and
// parallel work, coverage, speculation outcomes, and the per-loop
// breakdown in stable order.
func (in *Interp) Metrics(label string) obsv.RunMetrics {
	m := obsv.RunMetrics{
		Label:        label,
		Processors:   in.Model.Processors,
		TotalCycles:  in.Time(),
		TotalWork:    in.work,
		ParallelWork: in.parallelWork,
		Coverage:     in.Coverage(),
		PDPasses:     in.LRPDPasses,
		PDFailures:   in.LRPDFailures,
	}
	for _, lm := range in.loopStats {
		cp := *lm
		cp.Label = label
		m.Loops = append(m.Loops, cp)
	}
	obsv.SortLoopMetrics(m.Loops)
	return m
}

// Probe returns the value of a scalar in a COMMON block, the
// convention programs use to expose results to the harness and tests.
func (in *Interp) Probe(block, name string) (float64, bool) {
	blk := in.commons[block]
	if blk == nil {
		return 0, false
	}
	c := blk.scalars[name]
	if c == nil {
		return 0, false
	}
	return c.load().AsFloat(), true
}

// frame is the activation record of a program unit.
type frame struct {
	unit    *ir.ProgramUnit
	scalars map[string]*cell
	arrays  map[string]*Array
}

// Run executes the program's main unit.
func (in *Interp) Run() error { return in.RunContext(context.Background()) }

// RunContext executes the program's main unit under ctx. Cancellation
// is polled during the execution loop (including inside DO loops and
// concurrent DOALL workers) and surfaces promptly as ctx.Err().
func (in *Interp) RunContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	in.ctx = ctx
	main := in.Prog.Main()
	if main == nil {
		return fmt.Errorf("interp: no program unit")
	}
	fr, err := in.newFrame(main, nil, nil)
	if err != nil {
		return err
	}
	_, err = in.execBlock(fr, main.Body)
	return err
}

// cancelled polls the context every ctxStride statements.
func (in *Interp) cancelled() error {
	if in.ctx == nil {
		return nil
	}
	in.steps++
	if in.steps%ctxStride != 0 {
		return nil
	}
	return in.ctx.Err()
}

// Frame construction: evaluates dimension declarators with formals
// bound, allocates arrays, wires COMMON storage.
func (in *Interp) newFrame(u *ir.ProgramUnit, formalCells map[string]*cell, formalArrays map[string]*Array) (*frame, error) {
	fr := &frame{unit: u, scalars: map[string]*cell{}, arrays: map[string]*Array{}}
	for name, c := range formalCells {
		fr.scalars[name] = c
	}
	for name, a := range formalArrays {
		fr.arrays[name] = a
	}
	// PARAMETER constants first: array declarators (including those of
	// formals, which precede declarations in the symbol table) may
	// reference them.
	for _, sym := range u.Symbols.All() {
		name := sym.Name
		if sym.Param == nil {
			continue
		}
		v, err := in.eval(fr, sym.Param)
		if err != nil {
			return nil, err
		}
		c := &cell{kind: sym.Type}
		c.store(v)
		fr.scalars[name] = c
	}
	for _, sym := range u.Symbols.All() {
		name := sym.Name
		if sym.Param != nil {
			continue
		}
		if sym.Common != "" {
			if err := in.bindCommon(fr, sym); err != nil {
				return nil, err
			}
			continue
		}
		if sym.IsArray() {
			if actual, bound := fr.arrays[name]; bound {
				// Formal bound to an actual: view the actual's storage
				// under the formal's declared shape (sequence
				// association), with adjustable dims evaluated in this
				// frame where scalar formals are already bound.
				fr.arrays[name] = in.reshapeView(fr, sym, actual)
				continue
			}
			a, err := in.allocArray(fr, sym)
			if err != nil {
				if sym.Formal {
					// Assumed-size formal without an actual: error
					// only on use; skip allocation.
					continue
				}
				return nil, err
			}
			fr.arrays[name] = a
		}
	}
	return fr, nil
}

func (in *Interp) allocArray(fr *frame, sym *ir.Symbol) (*Array, error) {
	lo := make([]int64, len(sym.Dims))
	size := make([]int64, len(sym.Dims))
	for i, d := range sym.Dims {
		lv, err := in.eval(fr, d.LoOr1())
		if err != nil {
			return nil, err
		}
		if d.Hi == nil {
			return nil, fmt.Errorf("interp: assumed-size array %s cannot be allocated", sym.Name)
		}
		hv, err := in.eval(fr, d.Hi)
		if err != nil {
			return nil, err
		}
		lo[i] = lv.AsInt()
		size[i] = hv.AsInt() - lv.AsInt() + 1
		if size[i] < 0 {
			size[i] = 0
		}
	}
	return NewArray(sym.Name, sym.Type, lo, size), nil
}

func (in *Interp) bindCommon(fr *frame, sym *ir.Symbol) error {
	blk := in.commons[sym.Common]
	if blk == nil {
		blk = &commonBlock{arrays: map[string]*Array{}, scalars: map[string]*cell{}}
		in.commons[sym.Common] = blk
	}
	if sym.IsArray() {
		a := blk.arrays[sym.Name]
		if a == nil {
			var err error
			a, err = in.allocArray(fr, sym)
			if err != nil {
				return err
			}
			blk.arrays[sym.Name] = a
		}
		fr.arrays[sym.Name] = a
		return nil
	}
	c := blk.scalars[sym.Name]
	if c == nil {
		c = &cell{kind: sym.Type}
		blk.scalars[sym.Name] = c
	}
	fr.scalars[sym.Name] = c
	return nil
}

// getCell returns (allocating lazily) the scalar cell for name.
func (fr *frame) getCell(name string, u *ir.ProgramUnit) *cell {
	if c, ok := fr.scalars[name]; ok {
		return c
	}
	c := &cell{kind: kindOf(u, name)}
	fr.scalars[name] = c
	return c
}

// kindOf is name's declared type in u, or its implicit one.
func kindOf(u *ir.ProgramUnit, name string) ir.Type {
	if sym := u.Symbols.Lookup(name); sym != nil {
		return sym.Type
	}
	return ir.ImplicitType(name)
}

// control is the statement-level flow signal.
type control int

const (
	ctlNormal control = iota
	ctlReturn
	ctlStop
)

func (in *Interp) execBlock(fr *frame, b *ir.Block) (control, error) {
	for _, s := range b.Stmts {
		c, err := in.execStmt(fr, s)
		if err != nil || c != ctlNormal {
			return c, err
		}
	}
	return ctlNormal, nil
}

func (in *Interp) execStmt(fr *frame, s ir.Stmt) (control, error) {
	if err := in.cancelled(); err != nil {
		return ctlNormal, err
	}
	switch x := s.(type) {
	case *ir.AssignStmt:
		v, err := in.eval(fr, x.RHS)
		if err != nil {
			return ctlNormal, err
		}
		in.charge(in.Cost.Store)
		return ctlNormal, in.assign(fr, x.LHS, v)
	case *ir.IfStmt:
		cond, err := in.eval(fr, x.Cond)
		if err != nil {
			return ctlNormal, err
		}
		in.charge(in.Cost.Branch)
		if cond.B {
			return in.execBlock(fr, x.Then)
		}
		if x.Else != nil {
			return in.execBlock(fr, x.Else)
		}
		return ctlNormal, nil
	case *ir.DoStmt:
		return in.execDo(fr, x)
	case *ir.CallStmt:
		return ctlNormal, in.call(fr, x)
	case *ir.ReturnStmt:
		return ctlReturn, nil
	case *ir.StopStmt:
		return ctlStop, nil
	case *ir.ContinueStmt, *ir.CommentStmt:
		return ctlNormal, nil
	}
	return ctlNormal, fmt.Errorf("interp: unsupported statement %T", s)
}

// assign stores into a scalar or array element, marking LRPD shadows
// when active.
func (in *Interp) assign(fr *frame, lhs ir.Expr, v Value) error {
	switch t := lhs.(type) {
	case *ir.VarRef:
		if in.redTargets != nil && in.redTargets[t.Name] {
			in.redUpdates++
		}
		fr.getCell(t.Name, fr.unit).store(v)
		return nil
	case *ir.ArrayRef:
		if in.redTargets != nil && in.redTargets[t.Name] {
			in.redUpdates++
		}
		arr, idx, err := in.element(fr, t)
		if err != nil {
			return err
		}
		if in.shadows != nil {
			if sh := in.shadows[arr]; sh != nil {
				sh.MarkWrite(int64(idx), in.curIter)
				in.markCycles += in.Model.PDMarkCyclesPerAccess
			}
		}
		arr.Set(idx, v)
		return nil
	}
	return fmt.Errorf("interp: bad assignment target %T", lhs)
}

// element resolves an array reference to storage and flat index.
func (in *Interp) element(fr *frame, ref *ir.ArrayRef) (*Array, int, error) {
	arr := fr.arrays[ref.Name]
	if arr == nil {
		return nil, 0, fmt.Errorf("interp: array %s not allocated in %s", ref.Name, fr.unit.Name)
	}
	// The column-major index is summed as the subscripts are evaluated.
	// Every subscript is evaluated and charged before a rank or bounds
	// error is reported, and an evaluation error outranks both.
	idx, stride := int64(0), int64(1)
	var bounds error
	for d, sexpr := range ref.Subs {
		v, err := in.eval(fr, sexpr)
		if err != nil {
			return nil, 0, err
		}
		in.charge(in.Cost.AddrCalc)
		if d >= len(arr.Size) || bounds != nil {
			continue
		}
		sub := v.AsInt()
		if off := sub - arr.Lo[d]; off >= 0 && off < arr.Size[d] {
			idx += off * stride
			stride *= arr.Size[d]
			continue
		}
		bounds = fmt.Errorf("interp: %s: subscript %d out of bounds [%d,%d] in dimension %d",
			arr.Name, sub, arr.Lo[d], arr.Lo[d]+arr.Size[d]-1, d+1)
	}
	if len(ref.Subs) != len(arr.Size) {
		return nil, 0, fmt.Errorf("interp: %s: rank %d referenced with %d subscripts", arr.Name, len(arr.Size), len(ref.Subs))
	}
	if bounds != nil {
		return nil, 0, bounds
	}
	return arr, int(idx), nil
}

// execDo runs a loop serially, or on the parallel-loop executor when
// it is a DOALL or speculative.
func (in *Interp) execDo(fr *frame, d *ir.DoStmt) (control, error) {
	initV, err := in.eval(fr, d.Init)
	if err != nil {
		return ctlNormal, err
	}
	limitV, err := in.eval(fr, d.Limit)
	if err != nil {
		return ctlNormal, err
	}
	stepV, err := in.eval(fr, d.StepOr1())
	if err != nil {
		return ctlNormal, err
	}
	init, limit, step := initV.AsInt(), limitV.AsInt(), stepV.AsInt()
	if step == 0 {
		return ctlNormal, fmt.Errorf("interp: zero DO step")
	}
	n := rt.Trips(init, limit, step)
	par := d.Par
	if in.Parallel && !in.inDoall && par != nil && n > 1 && (par.Parallel || len(par.LRPD) > 0) {
		return in.execDoall(fr, d, init, step, n)
	}
	return in.execSerialLoop(fr, d, init, step, n)
}

func (in *Interp) execSerialLoop(fr *frame, d *ir.DoStmt, init, step, n int64) (control, error) {
	idx := fr.getCell(d.Index, fr.unit)
	for k := int64(0); k < n; k++ {
		idx.store(IntVal(init + k*step))
		in.charge(in.Cost.LoopIter)
		c, err := in.execBlock(fr, d.Body)
		if err != nil {
			return ctlNormal, err
		}
		if c != ctlNormal {
			return c, nil
		}
	}
	// The index retains its exit value.
	idx.store(IntVal(init + n*step))
	return ctlNormal, nil
}

// call invokes a subroutine with Fortran reference semantics: variable
// and whole-array actuals alias; array elements alias a single cell;
// other expressions are copy-in temporaries.
func (in *Interp) call(fr *frame, c *ir.CallStmt) error {
	callee := in.Prog.Unit(c.Name)
	if callee == nil {
		return fmt.Errorf("interp: unknown subroutine %s", c.Name)
	}
	if callee.Kind != ir.UnitSubroutine {
		return fmt.Errorf("interp: CALL to non-subroutine %s", c.Name)
	}
	in.depth++
	defer func() { in.depth-- }()
	if in.depth > 200 {
		return fmt.Errorf("interp: call depth limit (runaway recursion?)")
	}
	if len(c.Args) != len(callee.Formals) {
		return fmt.Errorf("interp: CALL %s: %d args for %d formals", c.Name, len(c.Args), len(callee.Formals))
	}
	in.charge(in.Cost.CallOverhead)
	cells := map[string]*cell{}
	arrays := map[string]*Array{}
	for i, formal := range callee.Formals {
		fsym := callee.Symbols.Lookup(formal)
		actual := c.Args[i]
		switch av := actual.(type) {
		case *ir.VarRef:
			if arr, isArr := fr.arrays[av.Name]; isArr {
				arrays[formal] = arr
				continue
			}
			cells[formal] = fr.getCell(av.Name, fr.unit)
		case *ir.ArrayRef:
			arr, idx, err := in.element(fr, av)
			if err != nil {
				return err
			}
			if fsym != nil && fsym.IsArray() {
				// Array formal bound to an element: the formal aliases
				// the window starting at that element (sequence
				// association over the flattened storage).
				arrays[formal] = windowOf(arr, idx)
				continue
			}
			cells[formal] = &cell{kind: fsym.Type, arr: arr, idx: idx}
		default:
			v, err := in.eval(fr, actual)
			if err != nil {
				return err
			}
			kind := ir.TypeReal
			if fsym != nil {
				kind = fsym.Type
			}
			cc := &cell{kind: kind}
			cc.store(v)
			cells[formal] = cc
		}
	}
	nfr, err := in.newFrame(callee, cells, arrays)
	if err != nil {
		return err
	}
	ctl, err := in.execBlock(nfr, callee.Body)
	if err != nil {
		return err
	}
	if ctl == ctlStop {
		return fmt.Errorf("interp: STOP reached in %s", c.Name)
	}
	return nil
}

// windowOf views an array's flattened storage starting at flat index
// idx as a fresh one-dimensional array (Fortran sequence association
// for array-element actuals).
func windowOf(arr *Array, idx int) *Array {
	w := &Array{Name: arr.Name, Kind: arr.Kind, Lo: []int64{1}}
	if arr.Kind == ir.TypeInteger {
		w.I = arr.I[idx:]
		w.Size = []int64{int64(len(w.I))}
	} else {
		w.F = arr.F[idx:]
		w.Size = []int64{int64(len(w.F))}
	}
	return w
}

// reshapeView aliases the actual's storage under the formal's declared
// shape, with adjustable dimensions evaluated in the callee frame.
func (in *Interp) reshapeView(fr *frame, fsym *ir.Symbol, actual *Array) *Array {
	lo := make([]int64, 0, len(fsym.Dims))
	size := make([]int64, 0, len(fsym.Dims))
	for i, d := range fsym.Dims {
		lv, err1 := in.eval(fr, d.LoOr1())
		if d.Hi == nil {
			// Assumed-size last dimension: take whatever remains.
			if i != len(fsym.Dims)-1 {
				return actual
			}
			used := int64(1)
			for _, s := range size {
				used *= s
			}
			if used == 0 {
				return actual
			}
			lo = append(lo, lv.AsInt())
			size = append(size, int64(actual.Total())/used)
			continue
		}
		hv, err2 := in.eval(fr, d.Hi)
		if err1 != nil || err2 != nil {
			return actual
		}
		lo = append(lo, lv.AsInt())
		size = append(size, hv.AsInt()-lv.AsInt()+1)
	}
	total := int64(1)
	for _, s := range size {
		total *= s
	}
	if total > int64(actual.Total()) {
		return actual // nonconforming: keep the actual's shape
	}
	return &Array{Name: fsym.Name, Kind: actual.Kind, Lo: lo, Size: size, F: actual.F, I: actual.I}
}
