package interp_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"polaris/internal/interp"
	"polaris/internal/ir"
	"polaris/internal/machine"
	"polaris/internal/parser"
)

// cancelProg keeps workers busy long enough to cancel mid-loop: the
// outer loop is forced DOALL (iterations write disjoint elements, so
// concurrent execution is race-free), the inner loop makes each
// iteration expensive.
const cancelProg = `      PROGRAM SPIN
      REAL A(64)
      COMMON /OUT/ A
      INTEGER I, J
      DO I = 1, 64
        DO J = 1, 200000
          A(I) = A(I) + 0.5
        END DO
      END DO
      END
`

func parseForcedDoall(t *testing.T) *ir.Program {
	t.Helper()
	prog, err := parser.ParseProgram(cancelProg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ir.Loops(prog.Main().Body) {
		if d.Index == "I" {
			d.Par = &ir.ParInfo{Parallel: true}
			return prog
		}
	}
	t.Fatal("outer loop not found")
	return nil
}

// TestConcurrentDoallCancellation is the regression for the DOALL
// executor's cancellation path under Concurrent: cancel mid-loop must
// surface context.Canceled promptly, and every worker goroutine must
// be gone when RunContext returns (the wg.Wait before return is the
// no-leak guarantee this test pins down).
func TestConcurrentDoallCancellation(t *testing.T) {
	prog := parseForcedDoall(t)
	in := interp.New(prog, machine.Default().WithProcessors(8))
	in.Parallel = true
	in.Concurrent = true

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- in.RunContext(ctx) }()
	time.Sleep(20 * time.Millisecond)
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunContext did not return after cancellation (worker hang or leak)")
	}

	// Workers must all have exited: poll because goroutine teardown is
	// asynchronous after wg.Wait's return unblocks us.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= base+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A context canceled before Run starts must fail fast without
// spawning any workers.
func TestConcurrentDoallPreCanceled(t *testing.T) {
	prog := parseForcedDoall(t)
	in := interp.New(prog, machine.Default().WithProcessors(8))
	in.Parallel = true
	in.Concurrent = true
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	base := runtime.NumGoroutine()
	if err := in.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if g := runtime.NumGoroutine(); g > base+1 {
		t.Fatalf("goroutines spawned despite pre-canceled context: %d > %d", g, base)
	}
}
