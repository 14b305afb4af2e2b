package symbolic

import "sync/atomic"

// Bound is a symbolic interval for an integer-valued atom. A nil field
// means unbounded on that side.
type Bound struct {
	Lo *Expr
	Hi *Expr
}

// Env is an ordered list of atom bounds used for monotonicity-based
// reasoning. The order is the variable-elimination order: a variable's
// bound expressions may reference only atoms appearing later in the
// order (inner loop indices first, then outer indices, then symbolic
// parameters), mirroring how the range test walks a loop nest from the
// inside out.
//
// The prover eliminates variables through a positional mask over the
// shared names/bounds (no copying) and memoizes sub-proofs per
// environment generation. Push, PushFront and Remove bump the
// generation, invalidating the memo and the positional index. An Env
// is not safe for concurrent use.
type Env struct {
	names  []string
	bounds map[string]Bound

	// gen counts mutations; the memo and idx caches are only valid
	// for the generation they were built against.
	gen uint64

	// idx maps name to its position in names (the mask bit index).
	idx    map[string]int
	idxGen uint64

	// memo caches prove answers keyed by canonical query fingerprint.
	memo    map[proveKey]bool
	memoGen uint64
}

// proveKey fingerprints one prover query: the canonical expression
// rendering, the strictness, the remaining depth budget, and the
// elimination mask. Together with the environment's generation these
// determine the answer exactly, so the memo is a pure cache.
type proveKey struct {
	expr   string
	mask   uint64
	depth  int8
	strict bool
}

// elimMask marks eliminated variables by their position in Env.names.
// The first 64 positions live in bits; deeper environments spill into
// the over map (copy-on-write, unmemoized — real nests never get
// there).
type elimMask struct {
	bits uint64
	over map[int]bool
}

func (m elimMask) has(i int) bool {
	if i < 64 {
		return m.bits&(1<<uint(i)) != 0
	}
	return m.over[i]
}

func (m elimMask) with(i int) elimMask {
	if i < 64 {
		return elimMask{bits: m.bits | 1<<uint(i), over: m.over}
	}
	over := make(map[int]bool, len(m.over)+1)
	for k, v := range m.over {
		over[k] = v
	}
	over[i] = true
	return elimMask{bits: m.bits, over: over}
}

// NewEnv returns an empty environment.
func NewEnv() *Env { return &Env{bounds: map[string]Bound{}} }

// Clone returns a copy sharing the (immutable) bound expressions. The
// memo is not carried over: the clone is typically mutated next.
func (v *Env) Clone() *Env {
	c := NewEnv()
	c.names = append(c.names, v.names...)
	for k, b := range v.bounds {
		c.bounds[k] = b
	}
	return c
}

// Push appends a variable with its bound to the end of the elimination
// order. Pushing an existing name overrides its bound (keeping its
// position).
func (v *Env) Push(name string, b Bound) {
	if _, ok := v.bounds[name]; !ok {
		v.names = append(v.names, name)
	}
	v.bounds[name] = b
	v.gen++
}

// PushFront inserts a variable at the beginning of the elimination
// order (eliminated first).
func (v *Env) PushFront(name string, b Bound) {
	if _, ok := v.bounds[name]; !ok {
		v.names = append([]string{name}, v.names...)
	}
	v.bounds[name] = b
	v.gen++
}

// Remove deletes a variable from the environment.
func (v *Env) Remove(name string) {
	if _, ok := v.bounds[name]; !ok {
		return
	}
	delete(v.bounds, name)
	for i, n := range v.names {
		if n == name {
			v.names = append(v.names[:i], v.names[i+1:]...)
			break
		}
	}
	v.gen++
}

// Lookup returns the bound for name.
func (v *Env) Lookup(name string) (Bound, bool) {
	b, ok := v.bounds[name]
	return b, ok
}

// Names returns the elimination order.
func (v *Env) Names() []string { return append([]string(nil), v.names...) }

// indexOf returns name's position in the elimination order, rebuilding
// the positional index when the environment has mutated.
func (v *Env) indexOf(name string) (int, bool) {
	if v.idx == nil || v.idxGen != v.gen {
		v.idx = make(map[string]int, len(v.names))
		for i, n := range v.names {
			v.idx[n] = i
		}
		v.idxGen = v.gen
	}
	i, ok := v.idx[name]
	return i, ok
}

// proveDepth caps the recursion of the prover; the bound covers any
// realistic loop nest (each level eliminates one variable).
const proveDepth = 24

// ProveGE proves e >= 0 for every integer valuation consistent with the
// environment. It returns false when the fact cannot be established
// (not when it is false): the prover is conservative.
func (v *Env) ProveGE(e *Expr) bool { return v.prove(e, false, proveDepth) }

// ProveGT proves e > 0 for every valuation consistent with the
// environment.
func (v *Env) ProveGT(e *Expr) bool { return v.prove(e, true, proveDepth) }

// Monotonicity classifies the behaviour of an expression as one
// integer variable increases by steps of one.
type Monotonicity int

// Monotonicity classes.
const (
	MonoUnknown Monotonicity = iota
	MonoNonDecreasing
	MonoNonIncreasing
	MonoConstant
)

// MonotoneIn determines the monotonicity of e in the integer variable
// name, under the environment, by testing the sign of the forward
// difference e(v+1)-e(v) (the range test's probe).
func (v *Env) MonotoneIn(e *Expr, name string) Monotonicity {
	d := e.ForwardDiff(name)
	if d.IsZero() {
		return MonoConstant
	}
	if v.prove(d, false, proveDepth) {
		return MonoNonDecreasing
	}
	if v.prove(Neg(d), false, proveDepth) {
		return MonoNonIncreasing
	}
	return MonoUnknown
}

// prove establishes e >= 0 (strict=false) or e > 0 (strict=true). With
// the differential check enabled (build tag proverdiff or
// SetDiffCheck), every answer is cross-validated against the
// un-memoized reference prover.
func (v *Env) prove(e *Expr, strict bool, depth int) bool {
	got := v.proveMask(e, strict, depth, elimMask{})
	if diffCheckEnabled() {
		diffCompare(v, e, strict, depth, got)
	}
	return got
}

// proveMask is the memoized masked prover: positions set in m are
// treated as eliminated from the environment.
func (v *Env) proveMask(e *Expr, strict bool, depth int, m elimMask) bool {
	if s, ok := e.ConstSign(); ok {
		if strict {
			return s > 0
		}
		return s >= 0
	}
	if depth == 0 {
		return false
	}
	statQueries.Add(1)
	memoizable := m.over == nil
	var key proveKey
	if memoizable {
		if v.memo == nil || v.memoGen != v.gen {
			v.memo = make(map[proveKey]bool)
			v.memoGen = v.gen
		}
		key = proveKey{expr: e.String(), mask: m.bits, depth: int8(depth), strict: strict}
		if r, ok := v.memo[key]; ok {
			statMemoHits.Add(1)
			return r
		}
	}
	r := v.proveSearch(e, strict, depth, m)
	if memoizable {
		v.memo[key] = r
	}
	return r
}

// proveSearch is the uncached elimination search behind proveMask.
func (v *Env) proveSearch(e *Expr, strict bool, depth int, m elimMask) bool {
	// Quick syntactic check: every monomial provably >= 0 and, for
	// strict, a positive constant term.
	if v.allTermsNonNeg(e, m) {
		if !strict {
			return true
		}
		if e.constCoef().Sign() > 0 {
			return true
		}
	}
	// Variable elimination in environment order: replace a variable by
	// the bound that minimizes e, when e is provably monotone in it.
	for i, name := range v.names {
		if m.has(i) {
			continue
		}
		if !e.ContainsVar(name) {
			continue
		}
		// Direct factors only: a variable inside an opaque atom cannot
		// be eliminated by monotonicity on the polynomial.
		if _, inOpaque := e.DegreeIn(name); inOpaque {
			continue
		}
		b := v.bounds[name]
		// The forward difference may itself reference name (e.g. the
		// difference of n^2+n is 2n+2); its sign is tested over the
		// whole box, exactly as the range test does. Each difference
		// lowers the degree in name, so the recursion terminates.
		d := e.ForwardDiff(name)
		switch {
		case d.IsZero():
			continue // cannot happen: ContainsVar implies a direct factor
		case v.proveMask(d, false, depth-1, m):
			// Non-decreasing: minimum at the lower bound.
			if b.Lo == nil {
				continue
			}
			if v.proveMask(e.Subst(name, b.Lo), strict, depth-1, m.with(i)) {
				return true
			}
		case v.proveMask(Neg(d), false, depth-1, m):
			// Non-increasing: minimum at the upper bound.
			if b.Hi == nil {
				continue
			}
			if v.proveMask(e.Subst(name, b.Hi), strict, depth-1, m.with(i)) {
				return true
			}
		default:
			// Monotonicity unknown: if both bounds exist, e >= 0 over
			// the box follows from e >= 0 at... no single endpoint
			// suffices for non-monotone e; try splitting e = f+g where
			// each part is monotone is future work. Skip this variable.
		}
	}
	return false
}

// allTermsNonNeg reports whether every monomial of e is provably
// non-negative: positive coefficient and every atom in it provably
// >= 0 with even powers free.
func (v *Env) allTermsNonNeg(e *Expr, m elimMask) bool {
	for _, t := range e.terms {
		if t.coef.Sign() <= 0 {
			return false
		}
		for i := range t.factors {
			f := &t.factors[i]
			if f.pow%2 == 0 {
				continue
			}
			if !v.atomNonNeg(f.atomKey(), m) {
				return false
			}
		}
	}
	return true
}

// atomNonNeg reports whether the atom with the given canonical key is
// provably >= 0 in the masked environment view.
func (v *Env) atomNonNeg(key string, m elimMask) bool {
	b, ok := v.bounds[key]
	if !ok || b.Lo == nil {
		return false
	}
	i, inOrder := v.indexOf(key)
	if inOrder && m.has(i) {
		// Eliminated: its bound is no longer usable.
		return false
	}
	if s, isC := b.Lo.ConstSign(); isC {
		return s >= 0
	}
	rest := m
	if inOrder {
		rest = m.with(i)
	}
	return v.proveMask(b.Lo, false, proveDepth/2, rest)
}

// Prover statistics (process-wide, atomic): total memoizable prove
// queries, memo hits, differential cross-checks and mismatches. The
// bench harness and the differential tests read them.
var (
	statQueries    atomic.Int64
	statMemoHits   atomic.Int64
	statDiffChecks atomic.Int64
	statDiffMiss   atomic.Int64
)

// ProverStats is a snapshot of the prover's counters.
type ProverStats struct {
	Queries    int64 `json:"queries"`
	MemoHits   int64 `json:"memo_hits"`
	DiffChecks int64 `json:"diff_checks,omitempty"`
	Mismatches int64 `json:"mismatches,omitempty"`
}

// ReadProverStats returns the current counters.
func ReadProverStats() ProverStats {
	return ProverStats{
		Queries:    statQueries.Load(),
		MemoHits:   statMemoHits.Load(),
		DiffChecks: statDiffChecks.Load(),
		Mismatches: statDiffMiss.Load(),
	}
}

// ResetProverStats zeroes the counters.
func ResetProverStats() {
	statQueries.Store(0)
	statMemoHits.Store(0)
	statDiffChecks.Store(0)
	statDiffMiss.Store(0)
}

// MaxOver returns an expression for the maximum of e as the integer
// variable name ranges over its bound, established via monotonicity.
// ok is false when monotonicity is unprovable or the needed bound is
// missing.
func (v *Env) MaxOver(e *Expr, name string) (*Expr, bool) {
	b, has := v.Lookup(name)
	if !has {
		return nil, false
	}
	if !e.ContainsVar(name) {
		return e, true
	}
	switch v.MonotoneIn(e, name) {
	case MonoConstant:
		return e, true
	case MonoNonDecreasing:
		if b.Hi == nil {
			return nil, false
		}
		return e.Subst(name, b.Hi), true
	case MonoNonIncreasing:
		if b.Lo == nil {
			return nil, false
		}
		return e.Subst(name, b.Lo), true
	}
	return nil, false
}

// MinOver is the mirror of MaxOver.
func (v *Env) MinOver(e *Expr, name string) (*Expr, bool) {
	b, has := v.Lookup(name)
	if !has {
		return nil, false
	}
	if !e.ContainsVar(name) {
		return e, true
	}
	switch v.MonotoneIn(e, name) {
	case MonoConstant:
		return e, true
	case MonoNonDecreasing:
		if b.Lo == nil {
			return nil, false
		}
		return e.Subst(name, b.Lo), true
	case MonoNonIncreasing:
		if b.Hi == nil {
			return nil, false
		}
		return e.Subst(name, b.Hi), true
	}
	return nil, false
}
