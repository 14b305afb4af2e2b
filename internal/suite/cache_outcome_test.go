package suite

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"polaris/internal/core"
	"polaris/internal/obsv"
	"polaris/internal/pfa"
	"polaris/internal/store"
	"polaris/internal/telemetry"
)

// TestCompileOutcomeColdHitCoalesced pins the outcome taxonomy of the
// compiled singleflight path under -race: a leader whose context
// carries request ID "leader-A" reports cold; 8 waiters that arrive
// while the leader is still compiling all report coalesced and name
// "leader-A"; a request after completion reports cache_hit and still
// names the leader that did the work.
func TestCompileOutcomeColdHitCoalesced(t *testing.T) {
	c := newCache()
	prog, ok := ByName("trfd")
	if !ok {
		t.Fatal("trfd missing from suite")
	}
	opt := core.PolarisOptions()

	started := make(chan struct{})
	release := make(chan struct{})
	compile := func(block bool) func(context.Context, core.Options) (*core.Result, error) {
		return func(ctx context.Context, o core.Options) (*core.Result, error) {
			if block {
				close(started)
				<-release
			}
			return core.CompileContext(ctx, prog.Parse(), o)
		}
	}

	leaderDone := make(chan store.Outcome, 1)
	go func() {
		ctx := telemetry.WithRequestID(context.Background(), "leader-A")
		_, out, err := c.compile(ctx, prog, opt, compile(true))
		if err != nil {
			t.Errorf("leader compile: %v", err)
		}
		leaderDone <- out
	}()
	<-started

	// Launch 8 waiters and wait (via the Hits counter, which increments
	// at lookup time) until every one of them has found the in-flight
	// entry — only then release the leader, so all 8 are deterministic
	// coalesced waiters, not cache hits.
	const waiters = 8
	outs := make([]store.Outcome, waiters)
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := telemetry.WithRequestID(context.Background(), fmt.Sprintf("waiter-%d", i))
			_, outs[i], errs[i] = c.compile(ctx, prog, opt, compile(false))
		}(i)
	}
	for c.Stats().Hits < waiters {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if out := <-leaderDone; out.Kind != telemetry.OutcomeCold || out.LeaderID != "leader-A" {
		t.Fatalf("leader outcome = %+v, want cold/leader-A", out)
	}
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if outs[i].Kind != telemetry.OutcomeCoalesced {
			t.Errorf("waiter %d outcome = %q, want coalesced", i, outs[i].Kind)
		}
		if outs[i].LeaderID != "leader-A" {
			t.Errorf("waiter %d leader = %q, want leader-A", i, outs[i].LeaderID)
		}
	}

	// After completion: a fresh request is a cache_hit that still names
	// the leader which performed the compile.
	ctx := telemetry.WithRequestID(context.Background(), "late-B")
	_, out, err := c.compile(ctx, prog, opt, compile(false))
	if err != nil {
		t.Fatalf("late hit: %v", err)
	}
	if out.Kind != telemetry.OutcomeCacheHit || out.LeaderID != "leader-A" {
		t.Errorf("late outcome = %+v, want cache_hit/leader-A", out)
	}

	// No request ID on the context → empty leader ID, same outcomes.
	other := Program{Name: "other", Source: "C anon\n" + prog.Source}
	_, out, err = c.compile(context.Background(), other, opt, compile(false))
	if err != nil {
		t.Fatalf("anonymous compile: %v", err)
	}
	if out.Kind != telemetry.OutcomeCold || out.LeaderID != "" {
		t.Errorf("anonymous outcome = %+v, want cold with empty leader", out)
	}
}

// TestBaselineAndSerialOutcomes covers the other two singleflight
// paths: both must report cold for the leader, coalesced (naming the
// leader) for a parked waiter, and cache_hit afterwards.
func TestBaselineAndSerialOutcomes(t *testing.T) {
	prog, ok := ByName("trfd")
	if !ok {
		t.Fatal("trfd missing from suite")
	}

	t.Run("baseline", func(t *testing.T) {
		c := newCache()
		started := make(chan struct{})
		release := make(chan struct{})
		leaderOut := make(chan store.Outcome, 1)
		go func() {
			ctx := telemetry.WithRequestID(context.Background(), "base-leader")
			_, out, err := c.baseline(ctx, prog, func(ctx context.Context) (*pfa.Result, error) {
				close(started)
				<-release
				return pfa.Compile(prog.Parse())
			})
			if err != nil {
				t.Errorf("baseline leader: %v", err)
			}
			leaderOut <- out
		}()
		<-started
		waiterOut := make(chan store.Outcome, 1)
		go func() {
			ctx := telemetry.WithRequestID(context.Background(), "base-waiter")
			_, out, err := c.baseline(ctx, prog, func(ctx context.Context) (*pfa.Result, error) {
				t.Error("waiter ran the baseline compile; singleflight broken")
				return pfa.Compile(prog.Parse())
			})
			if err != nil {
				t.Errorf("baseline waiter: %v", err)
			}
			waiterOut <- out
		}()
		for c.Stats().Hits < 1 {
			time.Sleep(time.Millisecond)
		}
		close(release)
		if out := <-leaderOut; out.Kind != telemetry.OutcomeCold || out.LeaderID != "base-leader" {
			t.Errorf("leader outcome = %+v", out)
		}
		if out := <-waiterOut; out.Kind != telemetry.OutcomeCoalesced || out.LeaderID != "base-leader" {
			t.Errorf("waiter outcome = %+v", out)
		}
		_, out, err := c.baseline(context.Background(), prog, func(ctx context.Context) (*pfa.Result, error) {
			return pfa.Compile(prog.Parse())
		})
		if err != nil {
			t.Fatalf("baseline hit: %v", err)
		}
		if out.Kind != telemetry.OutcomeCacheHit || out.LeaderID != "base-leader" {
			t.Errorf("hit outcome = %+v", out)
		}
	})

	t.Run("serial", func(t *testing.T) {
		c := newCache()
		started := make(chan struct{})
		release := make(chan struct{})
		leaderOut := make(chan store.Outcome, 1)
		go func() {
			ctx := telemetry.WithRequestID(context.Background(), "ser-leader")
			_, _, out, err := c.serial(ctx, prog, func(ctx context.Context) (int64, float64, error) {
				close(started)
				<-release
				return 42, 1.5, nil
			})
			if err != nil {
				t.Errorf("serial leader: %v", err)
			}
			leaderOut <- out
		}()
		<-started
		waiterOut := make(chan store.Outcome, 1)
		go func() {
			ctx := telemetry.WithRequestID(context.Background(), "ser-waiter")
			cycles, sum, out, err := c.serial(ctx, prog, func(ctx context.Context) (int64, float64, error) {
				t.Error("waiter ran the serial execution; singleflight broken")
				return 0, 0, nil
			})
			if err != nil || cycles != 42 || sum != 1.5 {
				t.Errorf("serial waiter: cycles=%d sum=%g err=%v", cycles, sum, err)
			}
			waiterOut <- out
		}()
		for c.Stats().Hits < 1 {
			time.Sleep(time.Millisecond)
		}
		close(release)
		if out := <-leaderOut; out.Kind != telemetry.OutcomeCold || out.LeaderID != "ser-leader" {
			t.Errorf("leader outcome = %+v", out)
		}
		if out := <-waiterOut; out.Kind != telemetry.OutcomeCoalesced || out.LeaderID != "ser-leader" {
			t.Errorf("waiter outcome = %+v", out)
		}
		_, _, out, err := c.serial(context.Background(), prog, func(ctx context.Context) (int64, float64, error) {
			return 0, 0, nil
		})
		if err != nil {
			t.Fatalf("serial hit: %v", err)
		}
		if out.Kind != telemetry.OutcomeCacheHit || out.LeaderID != "ser-leader" {
			t.Errorf("hit outcome = %+v", out)
		}
	})
}

// TestOutcomeHandsOutTheEntryList: the cold lookup and every hit
// receive the one entry, and so the one list it holds — the leader's
// own capture, clipped, not a copy — and a lookup that brings no
// observer never builds the entry's replay bookkeeping. A later lookup
// that does bring one (the Runner's use) still gets its replay, leader's
// label included, since nothing was ever emitted to it.
func TestOutcomeHandsOutTheEntryList(t *testing.T) {
	c := newCache()
	prog, _ := ByName("trfd")
	opt := core.PolarisOptions()
	opt.TraceLabel = "lead"
	compiles := 0
	fn := func(ctx context.Context, o core.Options) (*core.Result, error) {
		compiles++
		return core.CompileContext(ctx, prog.Parse(), o)
	}
	cold, _, err := c.compile(context.Background(), prog, opt, fn)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.decisions) == 0 || cap(cold.decisions) != len(cold.decisions) {
		t.Fatalf("cold outcome carries %d decisions in an array of %d", len(cold.decisions), cap(cold.decisions))
	}
	hitOpt := opt
	hitOpt.TraceLabel = "hit"
	for i := 0; i < 3; i++ {
		hit, out, err := c.compile(context.Background(), prog, hitOpt, fn)
		if err != nil {
			t.Fatal(err)
		}
		if out.Kind != telemetry.OutcomeCacheHit || &hit.decisions[0] != &cold.decisions[0] || len(hit.decisions) != len(cold.decisions) {
			t.Fatalf("hit %d: outcome %q with a list of its own", i, out.Kind)
		}
	}
	for _, d := range cold.decisions {
		if d.Label != "lead" {
			t.Fatalf("the entry's list carries label %q, recorded under %q", d.Label, "lead")
		}
	}
	if cold.emitted != nil {
		t.Errorf("lookups without an observer built a replay set of %d labels", len(cold.emitted))
	}
	if compiles != 1 {
		t.Fatalf("compiled %d times", compiles)
	}

	obs := obsv.NewObserver()
	withObs := opt
	withObs.Observer = obs
	for i := 0; i < 2; i++ { // the second is deduplicated
		if _, _, err := c.compile(context.Background(), prog, withObs, fn); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(obs.Decisions()); got != len(cold.decisions) {
		t.Errorf("an observer brought to a resident entry received %d records, want %d once", got, len(cold.decisions))
	}
}
