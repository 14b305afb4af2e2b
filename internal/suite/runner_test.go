package suite

// Tests for the concurrent Runner: worker-pool semantics, cancellation,
// and concurrent-vs-serial result equality. CI runs these under -race.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	const n = 100
	var hits [n]int32
	err := forEach(context.Background(), 7, n, func(ctx context.Context, i int) error {
		atomic.AddInt32(&hits[i], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Errorf("index %d executed %d times", i, h)
		}
	}
}

// TestForEachFirstErrorCancels holds the pool's guarantee: once a job
// has failed, no job starts. The failing job 0 holds its worker until
// job 1 is running on the other, and job 1 holds that one until the
// pool has cancelled, so every later index is handed out after the
// cancel, when a worker must skip it rather than start it.
func TestForEachFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	running := make(chan struct{})
	var late int32
	err := forEach(context.Background(), 2, 50, func(ctx context.Context, i int) error {
		switch i {
		case 0:
			<-running
			return boom
		case 1:
			close(running)
			<-ctx.Done()
		default:
			atomic.AddInt32(&late, 1)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if late != 0 {
		t.Errorf("%d jobs started after the first error cancelled the pool", late)
	}
}

func TestForEachCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int32
	err := forEach(ctx, 4, 10, func(ctx context.Context, i int) error {
		atomic.AddInt32(&ran, 1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if ran != 0 {
		t.Errorf("%d jobs ran despite pre-cancelled context", ran)
	}
}

// TestRunnerConcurrentMatchesSerial runs Figure 7 with a wide pool and
// a single-worker pool and demands identical rows: concurrency (and the
// shared serial-run memo) must be invisible in the results.
func TestRunnerConcurrentMatchesSerial(t *testing.T) {
	ctx := context.Background()
	wide := NewRunner()
	wide.Workers = 8
	narrow := NewRunner()
	narrow.Workers = 1
	wideRows, err := wide.Figure7(ctx, 8)
	if err != nil {
		t.Fatalf("wide: %v", err)
	}
	narrowRows, err := narrow.Figure7(ctx, 8)
	if err != nil {
		t.Fatalf("narrow: %v", err)
	}
	if len(wideRows) != len(narrowRows) {
		t.Fatalf("row counts differ: %d vs %d", len(wideRows), len(narrowRows))
	}
	for i := range wideRows {
		if wideRows[i] != narrowRows[i] {
			t.Errorf("row %d differs:\nwide:   %+v\nnarrow: %+v", i, wideRows[i], narrowRows[i])
		}
	}
	// A second pass on the warm serial-run memo must agree with the first.
	again, err := wide.Figure7(ctx, 8)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	for i := range again {
		if again[i] != wideRows[i] {
			t.Errorf("warm-memo row %d differs: %+v vs %+v", i, again[i], wideRows[i])
		}
	}
}

func TestRunnerCancellation(t *testing.T) {
	r := NewRunner()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Table1(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Table1: want context.Canceled, got %v", err)
	}
	if _, err := r.Figure7(ctx, 8); !errors.Is(err, context.Canceled) {
		t.Errorf("Figure7: want context.Canceled, got %v", err)
	}
	if _, err := r.Figure6(ctx, 8); !errors.Is(err, context.Canceled) {
		t.Errorf("Figure6: want context.Canceled, got %v", err)
	}
	if _, err := r.Ablation(ctx, 8); !errors.Is(err, context.Canceled) {
		t.Errorf("Ablation: want context.Canceled, got %v", err)
	}
}

// TestRunnerMidFlightCancellation cancels while the pool is running and
// checks the error surfaces as context.Canceled rather than a partial
// result.
func TestRunnerMidFlightCancellation(t *testing.T) {
	r := NewRunner()
	r.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	// Warm nothing; instead cancel as soon as the first serial run
	// begins, via a goroutine watching the signal below.
	go func() {
		<-started
		cancel()
	}()
	progs := All()
	err := forEach(ctx, r.Workers, len(progs), func(ctx context.Context, i int) error {
		select {
		case started <- struct{}{}:
		default:
		}
		_, _, err := r.serialTime(ctx, progs[i])
		return err
	})
	if err == nil {
		t.Fatal("mid-flight cancellation returned nil")
	}
	if !errors.Is(err, context.Canceled) {
		// Cached serial runs may complete before polling; the pool must
		// still report cancellation at the end.
		t.Errorf("want context.Canceled in chain, got %v", err)
	}
}

// TestRunOneValidateFlag pins that the validate flag changes execution,
// not compilation: both settings compile the same program and time it
// alike, each in its own interpreter state.
func TestRunOneValidateFlag(t *testing.T) {
	r := NewRunner()
	p, _ := ByName("trfd")
	ctx := context.Background()
	o1, err := r.runOne(ctx, p, 8, true, true)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := r.runOne(ctx, p, 8, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if o1.cycles != o2.cycles {
		t.Errorf("validate flag changed timing: %d vs %d", o1.cycles, o2.cycles)
	}
	if fmt.Sprintf("%.6g", o1.sum) != fmt.Sprintf("%.6g", o2.sum) {
		t.Errorf("validate flag changed checksum beyond float drift: %v vs %v", o1.sum, o2.sum)
	}
}
