package core_test

// External test package: imports suite (which imports core) to check
// pipeline-order invariance over the whole benchmark suite.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"polaris/internal/core"
	"polaris/internal/obsv"
	"polaris/internal/suite"
)

// TestPipelineOrderInvariance checks that the pass-manager pipeline
// produces exactly the verdicts the seed's monolithic Compile produced
// on the full 16-program suite (plus TRACK):
// testdata/seed_verdicts.tsv was generated from the seed revision.
func TestPipelineOrderInvariance(t *testing.T) {
	data, err := os.ReadFile("testdata/seed_verdicts.tsv")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var got strings.Builder
	progs := append(suite.All(), suite.Track())
	for _, p := range progs {
		res, err := core.Compile(p.Parse(), core.PolarisOptions())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, lr := range res.Loops {
			fmt.Fprintf(&got, "%s\t%s\t%s\t%d\t%v\t%v\t%s\n",
				p.Name, lr.Unit, lr.Index, lr.Depth, lr.Parallel, lr.RunTimeTest, lr.Reason)
		}
	}
	want := string(data)
	if got.String() != want {
		wantLines := strings.Split(want, "\n")
		gotLines := strings.Split(got.String(), "\n")
		for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
			var w, g string
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if w != g {
				t.Fatalf("verdict divergence at line %d:\n  seed: %s\n  now:  %s", i+1, w, g)
			}
		}
		t.Fatal("verdicts differ from seed")
	}
}

// TestCompileCancellation checks that a canceled context aborts the
// pipeline promptly with ctx.Err().
func TestCompileCancellation(t *testing.T) {
	p, _ := suite.ByName("trfd")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := core.CompileContext(ctx, p.Parse(), core.PolarisOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestCompileReportAndTrace checks the instrumentation contract: one
// span per registered pass, durations recorded, mutation counters
// matching the result, and one schema-v2 span envelope per report
// entry on an Observer's trace stream.
func TestCompileReportAndTrace(t *testing.T) {
	p, _ := suite.ByName("trfd")
	var buf bytes.Buffer
	opt := core.PolarisOptions()
	opt.Observer = obsv.NewObserver()
	opt.Observer.SetTrace(obsv.NewTraceWriter(&buf))
	opt.TraceLabel = "trfd"
	res, err := core.Compile(p.Parse(), opt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if res.Report == nil {
		t.Fatal("no pipeline report")
	}
	wantPasses := []string{
		"interproc-constants", "inline", "normalize", "induction",
		"dependence-analysis", "strength-reduction", "verify-ir",
	}
	if len(res.Report.Events) != len(wantPasses) {
		t.Fatalf("events = %d, want %d: %+v", len(res.Report.Events), len(wantPasses), res.Report.Events)
	}
	for i, name := range wantPasses {
		ev := res.Report.Events[i]
		if ev.Pass != name {
			t.Errorf("event %d: pass %q, want %q", i, ev.Pass, name)
		}
		if ev.Seq != i {
			t.Errorf("event %d: seq %d", i, ev.Seq)
		}
		if ev.Label != "trfd" {
			t.Errorf("event %d: label %q", i, ev.Label)
		}
		if ev.DurationNS < 0 {
			t.Errorf("event %d: negative duration", i)
		}
	}
	da := res.Report.Event("dependence-analysis")
	if got := da.Mutations["loops_annotated"]; got != int64(len(res.Loops)) {
		t.Errorf("loops_annotated = %d, want %d", got, len(res.Loops))
	}
	inl := res.Report.Event("inline")
	if got := inl.Mutations["calls_inlined"]; got != int64(res.InlinedCalls) {
		t.Errorf("calls_inlined = %d, want %d", got, res.InlinedCalls)
	}
	ind := res.Report.Event("induction")
	if got := ind.Mutations["variables_substituted"]; got != int64(len(res.InductionVars)) {
		t.Errorf("variables_substituted = %d, want %d", got, len(res.InductionVars))
	}

	// Trace: one span envelope per report entry, in order, carrying the
	// same record.
	envs, err := obsv.ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	n := 0
	for _, e := range envs {
		if e.Type != obsv.TypeSpan {
			continue
		}
		if n >= len(res.Report.Events) {
			t.Fatalf("trace has more spans than the report's %d entries", len(res.Report.Events))
		}
		got, want := e.Span, res.Report.Events[n]
		if got.Seq != want.Seq || got.Pass != want.Pass || got.Label != want.Label ||
			!reflect.DeepEqual(got.Mutations, want.Mutations) {
			t.Errorf("trace span %d = %+v, want %+v", n, *got, want)
		}
		n++
	}
	if n != len(res.Report.Events) {
		t.Errorf("trace spans = %d, want %d", n, len(res.Report.Events))
	}
}

// TestPipelineErrorType checks the typed boundary error: a failing
// program surfaces as *core.PipelineError naming the pass.
func TestPipelineErrorType(t *testing.T) {
	perr := &core.PipelineError{Pass: "inline", Err: os.ErrInvalid}
	var target *core.PipelineError
	if !errors.As(error(perr), &target) {
		t.Fatal("errors.As failed on PipelineError")
	}
	if !errors.Is(perr, os.ErrInvalid) {
		t.Fatal("errors.Is does not reach the wrapped error")
	}
	if want := "pass inline: invalid argument"; perr.Error() != want {
		t.Fatalf("Error() = %q, want %q", perr.Error(), want)
	}
}
