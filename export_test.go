package polaris

import "polaris/internal/codegen"

// GoText is what codegen.EmitGo returns for r at Emit's default Go
// options: the text Emit(w, EmitGo) writes, whatever w is.
func GoText(r *Result) (string, error) {
	return codegen.EmitGo(r.inner, codegen.GoOptions{Processors: r.processors})
}
