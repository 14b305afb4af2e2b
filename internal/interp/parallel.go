package interp

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"polaris/internal/ir"
	"polaris/internal/lrpd"
	"polaris/internal/machine"
)

// execDoall is the interpreter's one DOALL executor. The loop splits
// into one contiguous chunk per simulated processor, and a worker runs
// each chunk: a child Interp over its own copy of the frame's maps,
// with fresh private scalars and arrays every iteration. By default
// the workers run one after another and update the shared reduction
// accumulators in place, so the result is the serial one; Validate
// runs them, and each chunk, in reverse. Under Concurrent each worker
// runs on its own goroutine into partials that start at the
// operator's identity and merge in worker order at the join. Either
// way the loop is charged once, after the join, from the workers'
// counters: fork + max per-processor share + join + the reduction
// form's term.
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
	targets := reductionTargets(par)
	var workers []*worker
	for lo := int64(0); lo < n; lo += chunk {
		workers = append(workers, in.newWorker(fr, d, idx.kind, targets, lo, min(lo+chunk, n)))
	}
	if in.Concurrent {
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
			if in.Validate {
				w = workers[len(workers)-1-i]
			}
			if w.err = w.run(d, init, step, n); w.err != nil {
				break
			}
		}
	}

	perProc := make([]int64, len(workers))
	bodyWork, updates := int64(0), int64(0)
	for i, w := range workers {
		if w.err != nil {
			return ctlNormal, w.err
		}
		if in.Concurrent {
			w.merge(fr, par)
		}
		perProc[i] = w.work
		bodyWork += w.work
		updates += w.redUpdates
	}
	for j, name := range par.LastValue {
		fr.getCell(name, fr.unit).store(workers[len(workers)-1].last[j])
	}
	idx.store(IntVal(init + n*step))

	in.ParallelLoopExecs++
	in.work += bodyWork
	parTime := in.parallelTime(fr, par, perProc, p, updates, 0)
	in.saved += bodyWork - parTime
	in.parallelWork += bodyWork
	in.recordLoop(d, "doall", bodyWork, parTime)
	return ctlNormal, nil
}

// worker runs one chunk [lo, hi) of a DOALL.
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
// model, costs, COMMON storage and context but counts its own cycles
// and reduction updates, and a copy of the frame's maps with a private
// loop index; under Concurrent the reduction targets are partials at
// the operator's identity.
func (in *Interp) newWorker(fr *frame, d *ir.DoStmt, idxKind ir.Type, targets map[string]bool, lo, hi int64) *worker {
	child := &Interp{Prog: in.Prog, Model: in.Model, Cost: in.Cost, Validate: in.Validate,
		commons: in.commons, redTargets: targets, inDoall: true, depth: in.depth, ctx: in.ctx}
	wfr := &frame{unit: fr.unit, scalars: maps.Clone(fr.scalars), arrays: maps.Clone(fr.arrays)}
	wfr.scalars[d.Index] = &cell{kind: idxKind}
	if in.Concurrent {
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

// run executes the worker's chunk, in reverse under Validate.
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

// execLRPD speculatively executes the loop as a DOALL under the PD
// test. Execution is sequential under the hood (so program state is
// always the sequential result); the shadow analysis decides whether
// the parallel time or the failed-speculation penalty is charged — the
// accounting of Section 3.5.3 and Figure 6.
func (in *Interp) execLRPD(fr *frame, d *ir.DoStmt, init, step, n int64) (control, error) {
	par := d.Par
	in.inDoall = true
	defer func() { in.inDoall = false }()

	// Instrument the arrays under test and checkpoint them (cost of
	// saving state for possible restoration).
	shadows := map[*Array]*lrpd.Shadow{}
	backupCost := int64(0)
	totalElems := int64(0)
	for _, name := range par.LRPD {
		arr := fr.arrays[name]
		if arr == nil {
			continue
		}
		shadows[arr] = lrpd.NewShadow(arr.Total())
		backupCost += int64(arr.Total()) * in.Model.BackupCyclesPerElement
		totalElems += int64(arr.Total())
	}
	in.shadows = shadows
	in.markCycles = 0
	in.redTargets, in.redUpdates = reductionTargets(par), 0
	defer func() { in.shadows, in.redTargets = nil, nil }()

	p := in.Model.Processors
	chunk := (n + int64(p) - 1) / int64(p)
	perProc := make([]int64, p)
	workBefore := in.work
	idx := fr.getCell(d.Index, fr.unit)
	for k := int64(0); k < n; k++ {
		in.curIter = k + 1
		idx.store(IntVal(init + k*step))
		before := in.work
		in.charge(in.Cost.LoopIter)
		c, err := in.execBlock(fr, d.Body)
		if err != nil {
			return ctlNormal, err
		}
		if c != ctlNormal {
			return ctlNormal, fmt.Errorf("interp: control flow escaping a speculative loop")
		}
		perProc[k/chunk] += in.work - before
	}
	in.curIter = 0
	idx.store(IntVal(init + n*step))
	bodyWork := in.work - workBefore

	// Post-execution analysis: O(a/p + log p).
	pass := true
	for _, sh := range shadows {
		if !sh.Analyze().Pass {
			pass = false
		}
	}
	analysisCost := totalElems*in.Model.PDAnalysisPerElement/int64(p) +
		in.Model.PDAnalysisLogTerm*machine.Log2(p)
	markShare := (in.markCycles + int64(p) - 1) / int64(p)
	specTime := backupCost + in.parallelTime(fr, par, perProc, p, in.redUpdates, analysisCost+markShare)

	in.LRPDBodyWork += bodyWork
	if pass {
		in.LRPDPasses++
		in.LRPDTime += specTime
		in.saved += bodyWork - specTime
		in.parallelWork += bodyWork
		in.recordLoop(d, "lrpd", bodyWork, specTime).PDPasses++
		return ctlNormal, nil
	}
	// Failed speculation: restore (already consistent — execution was
	// sequential) and re-execute serially. The sequential work is
	// already counted; the wasted parallel attempt is added on top:
	// T = T_pdt + T_seq, the paper's potential-slowdown accounting.
	in.LRPDFailures++
	in.LRPDTime += specTime + bodyWork
	in.saved -= specTime
	in.recordLoop(d, "lrpd", bodyWork, specTime+bodyWork).PDFailures++
	return ctlNormal, nil
}
