package polaris

import (
	"io"
	"strings"

	"polaris/internal/codegen"
)

// emitConfig collects the EmitOption settings for one Result.Emit call.
type emitConfig struct {
	goTarget bool
	procs    int
	label    string
}

// EmitOption configures Result.Emit. The target selectors EmitFortran
// and EmitGo are themselves options; the default target is Fortran.
type EmitOption func(*emitConfig)

// EmitFortran selects annotated Fortran output: the restructured
// source with parallel directives, preceded by the compilation report.
func EmitFortran(c *emitConfig) { c.goTarget = false }

// EmitGo selects the Go source-to-source backend: a standalone,
// buildable Go program in which DOALL loops run on bounded goroutine
// teams, reductions are logged per worker and replayed in serial
// order, privatized arrays become per-worker copies, and LRPD loops
// inline the speculative shadow test with serial re-execution on
// failure. Programs outside the backend's exactly-reproducible subset
// return a *codegen.UnsupportedError.
func EmitGo(c *emitConfig) { c.goTarget = true }

// WithEmitProcessors sets the default worker-team size baked into
// emitted Go programs (overridable at run time with -p). Without this
// option the Result's WithProcessors value applies, defaulting to 8.
func WithEmitProcessors(n int) EmitOption {
	return func(c *emitConfig) { c.procs = n }
}

// WithEmitLabel names the program in the generated header.
func WithEmitLabel(label string) EmitOption {
	return func(c *emitConfig) { c.label = label }
}

// Emit writes the compiled program to w in the selected target
// language. With no options it emits annotated Fortran. It does not
// stream. Fortran given a *strings.Builder renders straight into it,
// grown once by an estimate of the text; any other w receives the
// Fortran in one Write, from a buffer of the backend's own. The Go
// backend builds the per-program text in its own buffer and w receives
// three Writes: that text's head, the runtime, which every emitted
// program carries verbatim, and the text's tail. A *strings.Builder is
// grown once by the whole program first. When the backend refuses the
// program w receives nothing. Peak memory includes the output.
func (r *Result) Emit(w io.Writer, opts ...EmitOption) error {
	cfg := emitConfig{procs: r.processors}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.goTarget {
		return codegen.WriteGo(w, r.inner, codegen.GoOptions{Processors: cfg.procs, Label: cfg.label})
	}
	if b, ok := w.(*strings.Builder); ok {
		codegen.WriteFortran(b, r.inner)
		return nil
	}
	_, err := io.WriteString(w, codegen.EmitFortran(r.inner))
	return err
}
