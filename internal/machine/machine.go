// Package machine defines the deterministic cost model that stands in
// for the paper's hardware testbeds (the 8-processor SGI Challenge of
// Figure 7 and the 8-processor Alliant FX/80 of Figure 6). Every IR
// operation has a cycle cost; a parallel loop costs fork + the maximum
// per-processor share of its iterations + join; reductions and the
// run-time PD test add their own terms. Simulated cycles make speedup
// measurements reproducible on any host, preserving the ratio structure
// (work distribution, overheads, Amdahl behaviour) that the paper's
// figures plot — see DESIGN.md for the substitution rationale.
package machine

// ReductionStyle selects how parallel reductions are implemented —
// the paper's "blocked, private, or expanded" forms (Section 3.2,
// citing Pottenger & Eigenmann).
type ReductionStyle int

const (
	// ReductionPrivate gives each processor a private accumulator
	// (scalar or full array copy) merged at the join: merge cost is
	// p * elements, update cost is an ordinary store.
	ReductionPrivate ReductionStyle = iota
	// ReductionBlocked updates the shared accumulator under a lock:
	// no merge, but every reduction update pays a synchronization
	// premium.
	ReductionBlocked
	// ReductionExpanded expands the accumulator by a processor
	// dimension in shared memory; like private but with an extra
	// initialization sweep (elements * p) before the loop.
	ReductionExpanded
)

// String names the style.
func (s ReductionStyle) String() string {
	switch s {
	case ReductionBlocked:
		return "blocked"
	case ReductionExpanded:
		return "expanded"
	}
	return "private"
}

// Model is a simulated shared-memory multiprocessor.
type Model struct {
	// Processors available for DOALL execution.
	Processors int
	// ForkCycles / JoinCycles are paid once per parallel loop
	// execution (dispatch and barrier).
	ForkCycles int64
	JoinCycles int64
	// Reductions selects the implementation form of parallel
	// reductions.
	Reductions ReductionStyle
	// ReductionMergeCycles is paid per reduction element per
	// processor at the join (combining partial accumulators; private
	// and expanded forms).
	ReductionMergeCycles int64
	// ReductionLockCycles is the per-update synchronization premium of
	// the blocked form.
	ReductionLockCycles int64
	// PrivateInitCycles is paid per privatized array per processor at
	// the fork (allocating the private copies).
	PrivateInitCycles int64
	// PDTest parameters (Section 3.5): marking multiplies the cost of
	// each access to a tested array; the post-execution analysis costs
	// AnalysisPerElement * elements / p + AnalysisLogTerm * log2(p).
	PDMarkCyclesPerAccess int64
	PDAnalysisPerElement  int64
	PDAnalysisLogTerm     int64
	// BackupCyclesPerElement is the checkpoint/restore cost per array
	// element saved for speculative execution.
	BackupCyclesPerElement int64
	// CodegenFactor scales every cycle of the compiled program,
	// modelling back-end code quality (PFA's low-level loop
	// transformations; 1.0 = neutral).
	CodegenFactor float64
}

// Default returns the reference 8-processor machine.
func Default() Model {
	return Model{
		Processors:             8,
		ForkCycles:             1500,
		JoinCycles:             1000,
		Reductions:             ReductionPrivate,
		ReductionMergeCycles:   60,
		ReductionLockCycles:    80,
		PrivateInitCycles:      150,
		PDMarkCyclesPerAccess:  4,
		PDAnalysisPerElement:   2,
		PDAnalysisLogTerm:      300,
		BackupCyclesPerElement: 2,
		CodegenFactor:          1.0,
	}
}

// WithProcessors returns a copy with a different processor count.
func (m Model) WithProcessors(p int) Model {
	m.Processors = p
	return m
}

// WithCodegenFactor returns a copy with a different code-quality
// factor.
func (m Model) WithCodegenFactor(f float64) Model {
	m.CodegenFactor = f
	return m
}

// WithReductions returns a copy using the given reduction form.
func (m Model) WithReductions(s ReductionStyle) Model {
	m.Reductions = s
	return m
}

// Cost is the per-operation cycle table (R4400-flavoured magnitudes).
type Cost struct {
	Load, Store     int64
	AddSub, Mul     int64
	Div, Pow        int64
	Compare, Branch int64
	Intrinsic       int64
	LoopIter        int64
	AddrCalc        int64
	CallOverhead    int64
}

// DefaultCost returns the reference operation costs.
func DefaultCost() Cost {
	return Cost{
		Load:         2,
		Store:        2,
		AddSub:       1,
		Mul:          4,
		Div:          20,
		Pow:          40,
		Compare:      1,
		Branch:       2,
		Intrinsic:    25,
		LoopIter:     2,
		AddrCalc:     1,
		CallOverhead: 30,
	}
}

// PDAnalysisCycles is the time of the PD test's post-execution
// analysis over elements shadowed elements on p processors:
// O(a/p + log p).
func (m Model) PDAnalysisCycles(elements int64, p int) int64 {
	return elements*m.PDAnalysisPerElement/int64(p) + m.PDAnalysisLogTerm*log2(p)
}

// log2 returns ceil(log2(p)) for the PD-test analysis term.
func log2(p int) int64 {
	n := int64(0)
	for v := 1; v < p; v *= 2 {
		n++
	}
	return n
}
