package passes

import (
	"context"
	"errors"
	"strings"
	"testing"

	"polaris/internal/ir"
	"polaris/internal/obsv"
)

func TestManagerRunsInOrderAndRecords(t *testing.T) {
	var order []string
	m := NewManager("demo")
	m.Add(
		Func("a", func(c *Context) error { order = append(order, "a"); c.Count("x", 2); return nil }),
		Func("b", func(c *Context) error { order = append(order, "b"); return nil }),
	)
	rep, err := m.Run(context.Background(), ir.NewProgram())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v", order)
	}
	if len(rep.Events) != 2 {
		t.Fatalf("events = %+v", rep.Events)
	}
	if rep.Events[0].Mutations["x"] != 2 {
		t.Errorf("pass a mutations = %v", rep.Events[0].Mutations)
	}
	if rep.Events[1].Mutations != nil {
		t.Errorf("pass b should have no mutations, got %v", rep.Events[1].Mutations)
	}
	if rep.Event("b") == nil || rep.Event("nope") != nil {
		t.Error("Event lookup broken")
	}
}

func TestManagerWrapsPassErrors(t *testing.T) {
	sentinel := errors.New("boom")
	m := NewManager("")
	ran := false
	m.Add(
		Func("fails", func(c *Context) error { return sentinel }),
		Func("never", func(c *Context) error { ran = true; return nil }),
	)
	rep, err := m.Run(context.Background(), ir.NewProgram())
	if ran {
		t.Error("pass after failure still ran")
	}
	var perr *Error
	if !errors.As(err, &perr) || perr.Pass != "fails" {
		t.Fatalf("want *Error{Pass: fails}, got %v", err)
	}
	if !errors.Is(err, sentinel) {
		t.Error("wrapped error not reachable via errors.Is")
	}
	// The failed pass is still in the report, with its error recorded.
	if len(rep.Events) != 1 || rep.Events[0].Err != "boom" {
		t.Errorf("report = %+v", rep.Events)
	}
}

func TestManagerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	m := NewManager("")
	m.Add(
		Func("first", func(c *Context) error { cancel(); return nil }),
		Func("second", func(c *Context) error { t.Error("second ran after cancel"); return nil }),
	)
	if _, err := m.Run(ctx, ir.NewProgram()); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	// A cooperating pass that returns c.Err() mid-flight also yields
	// the bare context error.
	ctx2, cancel2 := context.WithCancel(context.Background())
	m2 := NewManager("")
	m2.Add(Func("coop", func(c *Context) error {
		cancel2()
		return c.Err()
	}))
	if _, err := m2.Run(ctx2, ir.NewProgram()); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from cooperating pass, got %v", err)
	}
}

// TestManagerRecoversPassPanic: a panicking pass must not kill the
// process. The panic is recovered into a *Error carrying the pass name
// and the captured stack, the failed pass still gets its span (with the
// error recorded) in the report and the Observer, later passes do not
// run, and the report covers everything that executed.
func TestManagerRecoversPassPanic(t *testing.T) {
	var after bool
	m := NewManager("boom")
	m.Obs = obsv.NewObserver()
	m.Add(
		Func("ok", func(c *Context) error { return nil }),
		Func("explode", func(c *Context) error { panic("subscript out of range") }),
		Func("never", func(c *Context) error { after = true; return nil }),
	)
	rep, err := m.Run(context.Background(), ir.NewProgram())
	if err == nil {
		t.Fatal("panicking pass reported no error")
	}
	var pe *Error
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T (%v), want *Error", err, err)
	}
	if pe.Pass != "explode" {
		t.Errorf("Pass = %q, want explode", pe.Pass)
	}
	if pe.Stack == "" {
		t.Error("panic error carries no stack")
	}
	if !strings.Contains(pe.Error(), "panic: subscript out of range") {
		t.Errorf("error message %q does not name the panic", pe.Error())
	}
	if after {
		t.Error("pass after the panicking one still ran")
	}
	// The report and the Observer cover the failed pass.
	if len(rep.Events) != 2 {
		t.Fatalf("report has %d events, want 2 (ok + explode): %+v", len(rep.Events), rep.Events)
	}
	ev := rep.Event("explode")
	if ev == nil || ev.Err == "" {
		t.Fatalf("failed pass has no errored event: %+v", rep.Events)
	}
	if spans := m.Obs.Spans(); len(spans) != 2 || spans[1].Pass != "explode" || spans[1].Err == "" {
		t.Errorf("observer missing the failed-pass span: %+v", spans)
	}
}

// TestManagerPanicBeatsCancellation: a panic concurrent with a
// canceled context is still reported as a pipeline error, never
// masked as the cancellation.
func TestManagerPanicBeatsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	m := NewManager("")
	m.Add(Func("explode", func(c *Context) error {
		cancel()
		panic("boom")
	}))
	_, err := m.Run(ctx, ir.NewProgram())
	var pe *Error
	if !errors.As(err, &pe) || pe.Pass != "explode" {
		t.Fatalf("err = %v, want *Error for pass explode", err)
	}
}
