package interp

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"polaris/internal/ir"
	"polaris/internal/machine"
	"polaris/internal/rt"
)

// execDoall is the interpreter's one parallel-loop executor, for
// DOALLs and speculative loops alike. The loop splits into one
// contiguous chunk per simulated processor, and a worker runs each
// chunk: a child Interp over its own copy of the frame's maps, with
// fresh private scalars and arrays every iteration. By default the
// workers run one after another and update the shared reduction
// accumulators in place, so the result is the serial one; Validate
// runs them, and each chunk, in reverse. Under Concurrent each worker
// runs on its own goroutine into partials that start at the
// operator's identity and merge in worker order at the join. Either
// way the loop is charged once, after the join, from the workers'
// counters: fork + max per-processor share + join + the reduction
// form's term.
//
// A speculative loop (Section 3.5) runs under the PD test: each worker
// marks one shared shadow per array under test, and the analysis after
// the join decides between the parallel time and the failed
// speculation's T_pdt + T_seq. Its workers always run forward, one
// after another, under Validate and Concurrent too, so the state is
// the serial one whether the test passes or fails.
func (in *Interp) execDoall(fr *frame, d *ir.DoStmt, init, step, n int64) (control, error) {
	par := d.Par
	p := max(in.Model.Processors, 1)
	chunk := (n + int64(p) - 1) / int64(p)
	// Cells the workers share must exist before the frame is copied.
	idx := fr.getCell(d.Index, fr.unit)
	for _, r := range par.Reductions {
		if fr.arrays[r.Target] == nil {
			fr.getCell(r.Target, fr.unit)
		}
	}
	var shadows map[*Array]*rt.Shadow
	tested := int64(0)
	if !par.Parallel {
		shadows = map[*Array]*rt.Shadow{}
		for _, name := range par.LRPD {
			if arr := fr.arrays[name]; arr != nil {
				shadows[arr] = rt.NewShadow(int64(arr.Total()))
				tested += int64(arr.Total())
			}
		}
	}
	concurrent := in.Concurrent && shadows == nil
	targets := reductionTargets(par)
	var workers []*worker
	for lo := int64(0); lo < n; lo += chunk {
		workers = append(workers, in.newWorker(fr, d, idx.kind, targets, shadows, concurrent, lo, min(lo+chunk, n)))
	}
	if concurrent {
		var wg sync.WaitGroup
		for _, w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.err = w.run(d, init, step, n)
			}()
		}
		wg.Wait()
	} else {
		for i := range workers {
			w := workers[i]
			if w.Validate {
				w = workers[len(workers)-1-i]
			}
			if w.err = w.run(d, init, step, n); w.err != nil {
				break
			}
		}
	}

	perProc := make([]int64, len(workers))
	bodyWork, updates, marks := int64(0), int64(0), int64(0)
	for i, w := range workers {
		if w.err != nil {
			return ctlNormal, w.err
		}
		if concurrent {
			w.merge(fr, par)
		}
		perProc[i] = w.work
		bodyWork += w.work
		updates += w.redUpdates
		marks += w.markCycles
	}
	for j, name := range par.LastValue {
		fr.getCell(name, fr.unit).store(workers[len(workers)-1].last[j])
	}
	idx.store(IntVal(init + n*step))
	in.work += bodyWork

	if shadows == nil {
		in.ParallelLoopExecs++
		parTime := in.parallelTime(fr, par, perProc, p, updates, 0)
		in.saved += bodyWork - parTime
		in.parallelWork += bodyWork
		in.recordLoop(d, "doall", bodyWork, parTime)
		return ctlNormal, nil
	}

	pass := true
	for _, sh := range shadows {
		if !sh.PDTest() {
			pass = false
		}
	}
	// Checkpoint of the arrays under test, each processor's share of
	// the marking, and the O(a/p + log p) analysis.
	extra := tested*in.Model.BackupCyclesPerElement + (marks+int64(p)-1)/int64(p) +
		in.Model.PDAnalysisCycles(tested, p)
	specTime := in.parallelTime(fr, par, perProc, p, updates, extra)
	in.LRPDBodyWork += bodyWork
	if pass {
		in.LRPDPasses++
		in.LRPDTime += specTime
		in.saved += bodyWork - specTime
		in.parallelWork += bodyWork
		in.recordLoop(d, "lrpd", bodyWork, specTime).PDPasses++
		return ctlNormal, nil
	}
	// Failed speculation: the state is already the serial one, so the
	// restore and serial re-execution cost their time only. The serial
	// work is counted; the wasted attempt is added on top:
	// T = T_pdt + T_seq, the paper's potential-slowdown accounting.
	in.LRPDFailures++
	in.LRPDTime += specTime + bodyWork
	in.saved -= specTime
	in.recordLoop(d, "lrpd", bodyWork, specTime+bodyWork).PDFailures++
	return ctlNormal, nil
}

// worker runs one chunk [lo, hi) of a parallel loop.
type worker struct {
	*Interp
	fr     *frame
	lo, hi int64
	// last holds the LastValue scalars after iteration n-1, which only
	// the final chunk runs.
	last []Value
	err  error
}

// newWorker gives a chunk a child interpreter that shares the program,
// model, costs, COMMON storage, context and the loop's shadows but
// counts its own cycles, marking and reduction updates, and a copy of
// the frame's maps with a private loop index; when the workers run
// concurrently the reduction targets are partials at the operator's
// identity. A worker that marks shadows runs forward.
func (in *Interp) newWorker(fr *frame, d *ir.DoStmt, idxKind ir.Type, targets map[string]bool,
	shadows map[*Array]*rt.Shadow, concurrent bool, lo, hi int64) *worker {
	child := &Interp{Prog: in.Prog, Model: in.Model, Cost: in.Cost, Validate: in.Validate && shadows == nil,
		commons: in.commons, shadows: shadows, redTargets: targets, inDoall: true, depth: in.depth, ctx: in.ctx}
	wfr := &frame{unit: fr.unit, scalars: maps.Clone(fr.scalars), arrays: maps.Clone(fr.arrays)}
	wfr.scalars[d.Index] = &cell{kind: idxKind}
	if concurrent {
		for _, r := range d.Par.Reductions {
			if a := fr.arrays[r.Target]; a != nil {
				part := NewArray(a.Name, a.Kind, a.Lo, a.Size)
				part.Fill(reductionIdentity(r.Op, a.Kind))
				wfr.arrays[r.Target] = part
				continue
			}
			part := &cell{kind: fr.scalars[r.Target].kind}
			part.store(reductionIdentity(r.Op, part.kind))
			wfr.scalars[r.Target] = part
		}
	}
	return &worker{Interp: child, fr: wfr, lo: lo, hi: hi}
}

// run executes the worker's chunk, in reverse under Validate. Shadow
// marks carry the 1-based iteration number.
func (w *worker) run(d *ir.DoStmt, init, step, n int64) error {
	par := d.Par
	for i := w.lo; i < w.hi; i++ {
		k := i
		if w.Validate {
			k = w.lo + w.hi - 1 - i
		}
		for _, name := range par.Private {
			w.fr.scalars[name] = &cell{kind: kindOf(w.fr.unit, name)}
		}
		for _, name := range par.PrivateArrays {
			if a := w.fr.arrays[name]; a != nil {
				w.fr.arrays[name] = NewArray(a.Name, a.Kind, a.Lo, a.Size)
			}
		}
		w.curIter = k + 1
		w.fr.getCell(d.Index, w.fr.unit).store(IntVal(init + k*step))
		w.charge(w.Cost.LoopIter)
		c, err := w.execBlock(w.fr, d.Body)
		if err != nil {
			return err
		}
		if c != ctlNormal {
			return fmt.Errorf("interp: control flow escaping a parallel loop")
		}
		if k == n-1 {
			for _, name := range par.LastValue {
				w.last = append(w.last, w.fr.getCell(name, w.fr.unit).load())
			}
		}
	}
	return nil
}

// merge folds the worker's reduction partials into the shared
// accumulators.
func (w *worker) merge(fr *frame, par *ir.ParInfo) {
	for _, r := range par.Reductions {
		if shared := fr.arrays[r.Target]; shared != nil {
			part := w.fr.arrays[r.Target]
			for i := 0; i < shared.Total(); i++ {
				shared.Set(i, combine(r.Op, shared.Get(i), part.Get(i)))
			}
			continue
		}
		shared := fr.scalars[r.Target]
		shared.store(combine(r.Op, shared.load(), w.fr.scalars[r.Target].load()))
	}
}

// reductionTargets is the set of names the loop reduces into, nil when
// it has none; assign counts the updates to them.
func reductionTargets(par *ir.ParInfo) map[string]bool {
	if len(par.Reductions) == 0 {
		return nil
	}
	targets := make(map[string]bool, len(par.Reductions))
	for _, r := range par.Reductions {
		targets[r.Target] = true
	}
	return targets
}

// parallelTime combines per-processor shares with the machine's
// overhead terms; updates counts the loop's reduction updates. extra
// is added inside the parallel section (PD-test marking and analysis).
func (in *Interp) parallelTime(fr *frame, par *ir.ParInfo, perProc []int64, p int, updates, extra int64) int64 {
	return in.Model.ForkCycles + slices.Max(perProc) + in.Model.JoinCycles + extra +
		in.reductionOverhead(fr, par, p, updates) +
		int64(len(par.PrivateArrays))*int64(p)*in.Model.PrivateInitCycles
}

// reductionOverhead models the paper's three reduction forms. The
// element count per reduction comes from the accumulator's storage in
// fr (1 for scalars, the array length for histogram targets); the
// blocked form instead charges a lock premium per update.
func (in *Interp) reductionOverhead(fr *frame, par *ir.ParInfo, p int, updates int64) int64 {
	if len(par.Reductions) == 0 {
		return 0
	}
	elements := int64(0)
	for _, r := range par.Reductions {
		if a := fr.arrays[r.Target]; a != nil {
			elements += int64(a.Total())
		} else {
			elements++
		}
	}
	switch in.Model.Reductions {
	case machine.ReductionBlocked:
		// Serialized updates: the premium lands on the critical path
		// (worst case: all updates contend).
		return updates * in.Model.ReductionLockCycles
	case machine.ReductionExpanded:
		// Initialization sweep of the expanded dimension plus merge.
		return 2 * elements * int64(p) * in.Model.ReductionMergeCycles
	default: // private
		return elements * int64(p) * in.Model.ReductionMergeCycles
	}
}
