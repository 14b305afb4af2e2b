package suite

import "polaris/internal/core"

// AblationSpec is one single-technique removal from the full pipeline:
// Mod flips the technique off in a full-pipeline Options value.
type AblationSpec struct {
	Name string
	Mod  func(*core.Options)
}

// Ablations enumerates the single-technique removals — the rows of the
// paper's Table 2 grid. The differential oracle reuses this list so new
// ablations are automatically soundness-checked.
func Ablations() []AblationSpec {
	return []AblationSpec{
		{"inline expansion", func(o *core.Options) { o.Inline = false }},
		{"generalized induction", func(o *core.Options) { o.Induction = false; o.SimpleInduction = true }},
		{"reductions", func(o *core.Options) { o.Reductions = false }},
		{"histogram reductions", func(o *core.Options) { o.HistogramReduction = false }},
		{"array privatization", func(o *core.Options) { o.ArrayPrivatization = false }},
		{"range test", func(o *core.Options) { o.RangeTest = false }},
		{"loop permutation", func(o *core.Options) { o.Permutation = false }},
		{"run-time (LRPD) test", func(o *core.Options) { o.LRPD = false }},
		{"strength reduction", func(o *core.Options) { o.StrengthReduction = false }},
	}
}
