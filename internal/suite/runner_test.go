package suite

// Tests for the concurrent Runner: worker-pool semantics, cancellation,
// and concurrent-vs-serial result equality. CI runs these under -race.

import (
	"context"
	"errors"
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

// TestRunnerConcurrentMatchesSerial sweeps again with a single-worker
// pool on the warm serial-run memo of the package's 8-worker sweep and
// demands the same points, bit for bit: concurrency and the memo must
// be invisible in the results. (TestAblationGridDeterministic holds
// two fresh 8-worker sweeps, cold memos both, to each other.)
func TestRunnerConcurrentMatchesSerial(t *testing.T) {
	wideRunner, wide := paperSweep(t)
	narrow := &Runner{Workers: 1, serial: wideRunner.serial}
	pts, err := narrow.Sweep(context.Background(), 8)
	if err != nil {
		t.Fatalf("narrow: %v", err)
	}
	if len(pts) != len(wide) {
		t.Fatalf("%d points, want %d", len(pts), len(wide))
	}
	for i := range pts {
		if pts[i] != wide[i] {
			t.Errorf("point %d differs:\n got %+v\nwant %+v", i, pts[i], wide[i])
		}
	}
}

func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewRunner().Sweep(ctx, 8); !errors.Is(err, context.Canceled) {
		t.Errorf("Sweep: want context.Canceled, got %v", err)
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
