// Package passes implements the instrumented pass manager that drives
// the Polaris pipeline. Each compiler technique is a named Pass; a
// Manager runs a registered sequence over a program, recording per-pass
// wall time and IR-mutation counts as one obsv.Span per pass, handing
// each span to an optional Observer (which may stream it as trace
// schema v2), and aggregating the spans into a PipelineReport.
//
// The package is deliberately generic: it knows nothing about the
// individual techniques. Package core registers its passes here, and
// the public polaris API surfaces the report.
package passes

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"polaris/internal/ir"
	"polaris/internal/obsv"
)

// metricSink is the mutation-counter store of one pass execution. It
// is lock-protected because Context is exported: nothing stops a pass
// from calling Count on it from goroutines of its own.
type metricSink struct {
	mu sync.Mutex
	m  map[string]int64
}

func (s *metricSink) add(metric string, delta int64) {
	s.mu.Lock()
	if s.m == nil {
		s.m = map[string]int64{}
	}
	s.m[metric] += delta
	s.mu.Unlock()
}

func (s *metricSink) snapshot() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.m) == 0 {
		return nil
	}
	out := make(map[string]int64, len(s.m))
	for k, v := range s.m {
		out[k] = v
	}
	return out
}

// Context is handed to every pass invocation. It carries the program
// under transformation, the cancellation context and the mutation
// counter sink for the currently running pass.
type Context struct {
	ctx     context.Context
	Program *ir.Program
	sink    *metricSink
}

// Context returns the cancellation context (never nil).
func (c *Context) Context() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// Err returns the context's error, if any. Long-running passes should
// poll it (for example once per loop analyzed) and return it promptly.
func (c *Context) Err() error { return c.Context().Err() }

// Count adds delta to the named mutation counter of the running pass
// (for example "calls_inlined" or "loops_annotated"). Counters reset
// between passes; the manager snapshots them into the pass's span.
func (c *Context) Count(metric string, delta int64) {
	if c.sink == nil {
		c.sink = &metricSink{}
	}
	c.sink.add(metric, delta)
}

// Pass is one named pipeline stage.
type Pass interface {
	Name() string
	Run(*Context) error
}

type funcPass struct {
	name string
	run  func(*Context) error
}

func (p funcPass) Name() string         { return p.name }
func (p funcPass) Run(c *Context) error { return p.run(c) }

// Func adapts a function to the Pass interface.
func Func(name string, run func(*Context) error) Pass {
	return funcPass{name: name, run: run}
}

// Error reports a pass failure and supports errors.Is/errors.As
// chains through Unwrap. Package core aliases it as PipelineError.
type Error struct {
	Pass string
	Err  error
	// Stack is the goroutine stack captured when the pass panicked;
	// empty for ordinary pass failures.
	Stack string
}

func (e *Error) Error() string { return fmt.Sprintf("pass %s: %v", e.Pass, e.Err) }
func (e *Error) Unwrap() error { return e.Err }

// Manager runs a registered pass sequence with instrumentation.
type Manager struct {
	// Label tags the compilation in its spans and the report
	// (typically the program name); may be empty.
	Label string
	// Obs, when non-nil, receives the span of every executed pass, the
	// same value the report records. A nil Observer records nothing.
	Obs *obsv.Observer

	passes []Pass
}

// NewManager returns an empty manager. label may be empty.
func NewManager(label string) *Manager {
	return &Manager{Label: label}
}

// Add registers passes in pipeline order.
func (m *Manager) Add(ps ...Pass) { m.passes = append(m.passes, ps...) }

// Run executes the registered passes in order over prog. Cancellation
// is checked between passes (and inside cooperating passes via
// Context.Err); on cancellation ctx.Err() is returned promptly. A pass
// failure is wrapped in *Error and aborts the pipeline; a pass panic
// is recovered into a *Error carrying the pass name and the captured
// stack, so one bad compilation cannot take down a process serving
// many. The report covers every pass that ran, including a failed
// final one.
func (m *Manager) Run(ctx context.Context, prog *ir.Program) (*PipelineReport, error) {
	rep := &PipelineReport{Label: m.Label}
	for i, p := range m.passes {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		pc := &Context{ctx: ctx, Program: prog, sink: &metricSink{}}
		start := time.Now()
		err, panicErr := runPass(p, pc)
		elapsed := time.Since(start)
		sp := obsv.Span{
			Label:      m.Label,
			Pass:       p.Name(),
			Seq:        i,
			DurationNS: elapsed.Nanoseconds(),
			Mutations:  pc.sink.snapshot(),
		}
		if err != nil {
			sp.Err = err.Error()
		}
		rep.Events = append(rep.Events, sp)
		rep.TotalNS += sp.DurationNS
		m.Obs.Span(sp)
		if err != nil {
			if panicErr != nil {
				// A panic is a pipeline bug, never a cancellation: report
				// it even when ctx has since been canceled.
				return rep, panicErr
			}
			if ctx.Err() != nil {
				// A cooperating pass bailed out on cancellation: report
				// the context error itself, as callers expect.
				return rep, ctx.Err()
			}
			return rep, &Error{Pass: p.Name(), Err: err}
		}
	}
	return rep, nil
}

// runPass executes one pass, converting a panic into a *Error with the
// pass name and captured stack. The second return is non-nil exactly
// when the pass panicked (and then equals the first).
func runPass(p Pass, pc *Context) (err error, panicErr *Error) {
	defer func() {
		if v := recover(); v != nil {
			panicErr = &Error{
				Pass:  p.Name(),
				Err:   fmt.Errorf("panic: %v", v),
				Stack: string(debug.Stack()),
			}
			err = panicErr
		}
	}()
	return p.Run(pc), nil
}

// PipelineReport aggregates the instrumentation of one pipeline run.
type PipelineReport struct {
	Label   string
	Events  []obsv.Span
	TotalNS int64
}

// Total returns the summed pass wall time.
func (r *PipelineReport) Total() time.Duration { return time.Duration(r.TotalNS) }

// Event returns the span of the named pass, or nil.
func (r *PipelineReport) Event(pass string) *obsv.Span {
	for i := range r.Events {
		if r.Events[i].Pass == pass {
			return &r.Events[i]
		}
	}
	return nil
}
