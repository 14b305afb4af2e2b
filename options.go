package polaris

import (
	"fmt"

	"polaris/internal/core"
	"polaris/internal/deps"
	"polaris/internal/obsv"
)

// Option configures a Compile call. Options follow the functional-
// options pattern: zero options compile with the paper's full
// technique set and no instrumentation.
type Option func(*compileConfig)

type compileConfig struct {
	baseline   bool
	techniques Techniques
	stats      *Stats
	traceLabel string
	observer   *obsv.Observer
	processors int
	memo       *UnitMemo
}

func defaultCompileConfig() compileConfig {
	return compileConfig{techniques: FullTechniques()}
}

// WithTechniques selects an explicit technique set (the ablation
// studies use this); the default is FullTechniques.
func WithTechniques(t Techniques) Option {
	return func(c *compileConfig) { c.techniques = t }
}

// WithBaseline compiles at the 1996-vendor (PFA) capability level the
// paper compares against, including its modelled back-end
// code-quality factor. Technique selection and observers do not apply
// to the baseline compiler.
func WithBaseline() Option {
	return func(c *compileConfig) { c.baseline = true }
}

// WithStats accumulates dependence-test counts into s during
// compilation.
func WithStats(s *Stats) Option {
	return func(c *compileConfig) { c.stats = s }
}

// WithTraceLabel tags the pipeline report and the records an Observer
// receives with a compilation label (typically the program name),
// distinguishing interleaved records when concurrent compilations share
// one Observer.
func WithTraceLabel(label string) Option {
	return func(c *compileConfig) { c.traceLabel = label }
}

// WithProcessors sets the simulated processor count that Execute uses
// for this result when ExecOptions.Processors is zero (default 8).
func WithProcessors(n int) Option {
	return func(c *compileConfig) { c.processors = n }
}

// UnitMemo is the bounded per-unit memo behind incremental
// compilation: a singleflight LRU of per-unit pass results keyed by
// each program unit's post-prologue content hash. Create one with
// NewUnitMemo, share it across Compile calls (it is safe for
// concurrent use), and pass it via WithIncremental; recompiles then
// re-run only the units an edit actually changed, replaying the
// memoized decision provenance for the rest. The memo never changes
// what a compilation produces — verdicts, decision streams, and
// emitted code are byte-identical with or without it.
type UnitMemo struct {
	inner *core.UnitMemo
}

// NewUnitMemo returns an empty unit memo bounded to at most maxEntries
// completed units and maxBytes of estimated retained size; zero means
// unlimited for either bound. In-flight fills are pinned and do not
// count against the bounds until they complete.
func NewUnitMemo(maxEntries int, maxBytes int64) *UnitMemo {
	return &UnitMemo{inner: core.NewUnitMemo(core.MemoLimits{MaxEntries: maxEntries, MaxBytes: maxBytes})}
}

// MemoStats is a point-in-time snapshot of a UnitMemo: resident
// entries/bytes, unit-level hit and miss counts, and LRU evictions.
type MemoStats = core.MemoStats

// Stats snapshots the memo's gauges and counters.
func (m *UnitMemo) Stats() MemoStats { return m.inner.Stats() }

// WithIncremental enables incremental compilation against the shared
// unit memo m: units whose post-prologue content hash matches a
// completed memo entry are reused (their pass results and decision
// records replayed) and only changed units re-run the per-unit passes.
// Result.UnitsReused / Result.UnitsRecompiled report the split. A nil
// m compiles normally. Does not apply to baseline compilations.
func WithIncremental(m *UnitMemo) Option {
	return func(c *compileConfig) { c.memo = m }
}

// TechniqueNames returns the canonical names of every selectable
// technique, in pipeline order. These are the strings TechniquesFromNames
// accepts and the wire format polaris-serve exposes in a /v1/compile
// request's "techniques" list.
func TechniqueNames() []string { return core.TechniqueNames() }

// TechniquesFromNames builds a technique set from canonical names (see
// TechniqueNames). An unknown name is an error naming the offender and
// the valid set; an empty list is the empty technique set (use
// FullTechniques for the default).
func TechniquesFromNames(names []string) (Techniques, error) {
	o, err := core.OptionsFromNames(names)
	if err != nil {
		return Techniques{}, fmt.Errorf("polaris: %w", err)
	}
	return techniquesFromCore(o), nil
}

// Names returns the canonical names of the enabled techniques, in
// pipeline order — the inverse of TechniquesFromNames.
func (t Techniques) Names() []string { return core.NamesOf(coreOptions(t)) }

// techniquesFromCore lifts the internal driver's option set back to
// the public technique selection — the inverse of coreOptions.
func techniquesFromCore(o core.Options) Techniques {
	return Techniques{
		Inline:                   o.Inline,
		Induction:                o.Induction,
		SimpleInduction:          o.SimpleInduction,
		Reductions:               o.Reductions,
		HistogramReductions:      o.HistogramReduction,
		ArrayPrivatization:       o.ArrayPrivatization,
		RangeTest:                o.RangeTest,
		LoopPermutation:          o.Permutation,
		RunTimeTest:              o.LRPD,
		StrengthReduction:        o.StrengthReduction,
		LoopNormalization:        o.Normalize,
		InterproceduralConstants: o.InterprocConstants,
	}
}

// Stats counts dependence-test work during one compilation.
type Stats struct {
	// PairsTested counts array access pairs submitted to the
	// dependence tester.
	PairsTested int
	// LinearDecided counts pairs settled by the linear (GCD/Banerjee
	// class) tests.
	LinearDecided int
	// RangeTests counts pairs that needed the symbolic range test.
	RangeTests int
	// Permutations counts loop-order permutations attempted.
	Permutations int
}

func (s *Stats) fill(d deps.Stats) {
	s.PairsTested = d.PairsTested
	s.LinearDecided = d.LinearDecided
	s.RangeTests = d.RangeTests
	s.Permutations = d.Permutations
}

// coreOptions lowers the public technique selection to the internal
// driver's option set.
func coreOptions(t Techniques) core.Options {
	return core.Options{
		Inline:             t.Inline,
		Induction:          t.Induction,
		SimpleInduction:    t.SimpleInduction,
		Reductions:         t.Reductions,
		HistogramReduction: t.HistogramReductions,
		ArrayPrivatization: t.ArrayPrivatization,
		RangeTest:          t.RangeTest,
		Permutation:        t.LoopPermutation,
		LRPD:               t.RunTimeTest,
		StrengthReduction:  t.StrengthReduction,
		Normalize:          t.LoopNormalization,
		InterprocConstants: t.InterproceduralConstants,
	}
}
