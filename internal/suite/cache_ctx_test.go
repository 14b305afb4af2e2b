package suite

// Regression tests for the singleflight cancellation-poisoning bug and
// the bounded-LRU promotion of the compile cache. CI runs these under
// -race.
//
// The bug: a waiter blocked on the leader's done channel ignoring its
// own context, and when the leader's request was canceled the waiter
// failed with *someone else's* context.Canceled. The fix makes every
// waiter select on its own ctx and retry the key when a leader dies of
// its own cancellation.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polaris/internal/core"
	"polaris/internal/obsv"
	"polaris/internal/pfa"
	"polaris/internal/store"
)

// waitFor polls cond until true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCacheWaiterSurvivesCanceledLeader is the headline regression:
// the leader is canceled mid-compile while a waiter with a live
// context is blocked on the same key. The waiter must not inherit the
// leader's context.Canceled — it retries, becomes the new leader, and
// succeeds.
func TestCacheWaiterSurvivesCanceledLeader(t *testing.T) {
	c := newCache()
	p, _ := ByName("trfd")
	opt := core.PolarisOptions()

	leaderStarted := make(chan struct{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.compile(leaderCtx, p, opt, func(ctx context.Context, opt core.Options) (*core.Result, error) {
			close(leaderStarted)
			<-ctx.Done() // "mid-compile": block until canceled
			return nil, ctx.Err()
		})
		leaderDone <- err
	}()
	<-leaderStarted

	var waiterCompiles int32
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.compile(context.Background(), p, opt, func(_ context.Context, opt core.Options) (*core.Result, error) {
			atomic.AddInt32(&waiterCompiles, 1)
			return core.Compile(p.Parse(), opt)
		})
		waiterDone <- err
	}()
	// The waiter has joined the leader's flight once a hit is recorded.
	waitFor(t, "waiter to join the flight", func() bool { return c.Stats().Hits >= 1 })

	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}
	if err := <-waiterDone; err != nil {
		t.Fatalf("live waiter inherited the leader's fate: %v", err)
	}
	if n := atomic.LoadInt32(&waiterCompiles); n != 1 {
		t.Errorf("waiter compiled %d times, want 1 (retry as new leader)", n)
	}
	if st := c.Stats(); st.Retries == 0 {
		t.Errorf("no dead-leader retry recorded: %+v", st)
	}
}

// TestCacheWaiterHonorsOwnContext: a waiter whose own context is
// canceled while the leader is still compiling must return its own
// ctx.Err() promptly instead of blocking on the leader.
func TestCacheWaiterHonorsOwnContext(t *testing.T) {
	c := newCache()
	p, _ := ByName("trfd")
	opt := core.PolarisOptions()

	leaderStarted := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.compile(context.Background(), p, opt, func(_ context.Context, opt core.Options) (*core.Result, error) {
			close(leaderStarted)
			<-release
			return core.Compile(p.Parse(), opt)
		})
		leaderDone <- err
	}()
	<-leaderStarted

	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.compile(waiterCtx, p, opt, func(_ context.Context, opt core.Options) (*core.Result, error) {
			return core.Compile(p.Parse(), opt)
		})
		waiterDone <- err
	}()
	waitFor(t, "waiter to join the flight", func() bool { return c.Stats().Hits >= 1 })

	cancelWaiter()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled waiter still blocked on the leader after 5s")
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed: %v", err)
	}
}

// TestBaselineAndSerialWaitersSurviveCanceledLeader covers the same
// dead-leader scenario on the other two singleflight paths.
func TestBaselineAndSerialWaitersSurviveCanceledLeader(t *testing.T) {
	p, _ := ByName("trfd")

	t.Run("baseline", func(t *testing.T) {
		c := newCache()
		leaderStarted := make(chan struct{})
		leaderCtx, cancelLeader := context.WithCancel(context.Background())
		defer cancelLeader()
		leaderDone := make(chan error, 1)
		go func() {
			_, _, err := c.baseline(leaderCtx, p, func(ctx context.Context) (*pfa.Result, error) {
				close(leaderStarted)
				<-ctx.Done()
				return nil, ctx.Err()
			})
			leaderDone <- err
		}()
		<-leaderStarted
		waiterDone := make(chan error, 1)
		go func() {
			_, _, err := c.baseline(context.Background(), p, func(ctx context.Context) (*pfa.Result, error) {
				return pfa.Compile(p.Parse())
			})
			waiterDone <- err
		}()
		waitFor(t, "waiter to join the flight", func() bool { return c.Stats().Hits >= 1 })
		cancelLeader()
		if err := <-leaderDone; !errors.Is(err, context.Canceled) {
			t.Fatalf("leader error = %v, want context.Canceled", err)
		}
		if err := <-waiterDone; err != nil {
			t.Fatalf("live baseline waiter inherited the leader's fate: %v", err)
		}
	})

	t.Run("serial", func(t *testing.T) {
		c := newCache()
		leaderStarted := make(chan struct{})
		leaderCtx, cancelLeader := context.WithCancel(context.Background())
		defer cancelLeader()
		leaderDone := make(chan error, 1)
		go func() {
			_, _, _, err := c.serial(leaderCtx, p, func(ctx context.Context) (int64, float64, error) {
				close(leaderStarted)
				<-ctx.Done()
				return 0, 0, ctx.Err()
			})
			leaderDone <- err
		}()
		<-leaderStarted
		waiterDone := make(chan error, 1)
		go func() {
			_, _, _, err := c.serial(context.Background(), p, func(ctx context.Context) (int64, float64, error) {
				return 1, 2.5, nil
			})
			waiterDone <- err
		}()
		waitFor(t, "waiter to join the flight", func() bool { return c.Stats().Hits >= 1 })
		cancelLeader()
		if err := <-leaderDone; !errors.Is(err, context.Canceled) {
			t.Fatalf("leader error = %v, want context.Canceled", err)
		}
		if err := <-waiterDone; err != nil {
			t.Fatalf("live serial waiter inherited the leader's fate: %v", err)
		}
	})
}

// boundedCache is the Runner's cache under a bound, so eviction can be
// driven against the replay only the Runner does.
func boundedCache(lim store.Limits) *cache {
	return &cache{store.New[cacheKey, *cacheEntry](lim)}
}

// liveBytes pairs LiveBytes with a live-entry count for the bound
// assertions below.
func (c *cache) liveBytes() (int64, int) {
	return c.LiveBytes(), c.Stats().Entries
}

// TestCacheLRUBounds drives more distinct keys than the cache may
// hold and checks the entry/byte bounds hold, eviction fires, the
// byte accounting is exactly the sum of live entries, and evicted
// keys recompile on the next request.
func TestCacheLRUBounds(t *testing.T) {
	const capEntries = 4
	c := boundedCache(store.Limits{MaxEntries: capEntries})
	progs := All()
	var compiles int32
	compileOne := func(p Program) {
		t.Helper()
		_, _, err := c.compile(context.Background(), p, core.PolarisOptions(), func(_ context.Context, opt core.Options) (*core.Result, error) {
			atomic.AddInt32(&compiles, 1)
			return core.Compile(p.Parse(), opt)
		})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	for _, p := range progs[:8] {
		compileOne(p)
	}
	st := c.Stats()
	if st.Entries > capEntries {
		t.Fatalf("cache holds %d entries, cap is %d", st.Entries, capEntries)
	}
	if st.Evictions != 8-capEntries {
		t.Errorf("evictions = %d, want %d", st.Evictions, 8-capEntries)
	}
	sum, n := c.liveBytes()
	if sum != st.Bytes || n != st.Entries {
		t.Errorf("byte accounting drifted: stats say %d bytes/%d entries, live sum is %d/%d",
			st.Bytes, st.Entries, sum, n)
	}
	// The most recent capEntries keys are warm; the first key was
	// evicted and must recompile.
	warm := atomic.LoadInt32(&compiles)
	compileOne(progs[7])
	if atomic.LoadInt32(&compiles) != warm {
		t.Errorf("most-recent key missed the cache after eviction churn")
	}
	compileOne(progs[0])
	if atomic.LoadInt32(&compiles) != warm+1 {
		t.Errorf("evicted key did not recompile (compiles %d -> %d)", warm, atomic.LoadInt32(&compiles))
	}
	sum, n = c.liveBytes()
	if st := c.Stats(); sum != st.Bytes || n != st.Entries {
		t.Errorf("byte accounting drifted after churn: stats %d/%d, live %d/%d",
			st.Bytes, st.Entries, sum, n)
	}
	// A byte bound below any entry's size still admits the newest entry
	// but evicts everything else.
	tiny := boundedCache(store.Limits{MaxBytes: 1})
	compileTiny := func(p Program) {
		_, _, err := tiny.compile(context.Background(), p, core.PolarisOptions(), func(_ context.Context, opt core.Options) (*core.Result, error) {
			return core.Compile(p.Parse(), opt)
		})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	compileTiny(progs[0])
	compileTiny(progs[1])
	if st := tiny.Stats(); st.Entries != 0 && st.Entries != 1 {
		t.Errorf("1-byte cache holds %d entries", st.Entries)
	}
	sum, n = tiny.liveBytes()
	if st := tiny.Stats(); sum != st.Bytes || n != st.Entries {
		t.Errorf("tiny cache accounting drifted: stats %d/%d, live %d/%d", st.Bytes, st.Entries, sum, n)
	}
}

// TestCacheEvictionVsReplayRace hammers one key with hitting requests
// (each under a unique label with a private observer) while a
// competing key churns the single-entry LRU, forcing eviction and
// recompilation of the hot key mid-replay. Every request must observe
// exactly one full copy of the decision provenance — eviction must
// never drop or duplicate per-label decisions. Run with -race.
func TestCacheEvictionVsReplayRace(t *testing.T) {
	a, _ := ByName("trfd")
	b, _ := ByName("ocean")
	opt := core.PolarisOptions()

	// Reference decision multiset for program a.
	ref := obsv.NewObserver()
	refOpt := opt
	refOpt.Observer = ref
	refOpt.TraceLabel = "ref"
	if _, err := core.Compile(a.Parse(), refOpt); err != nil {
		t.Fatal(err)
	}
	type dkey struct {
		loop, pass, detail string
		final              bool
	}
	countDecisions := func(ds []obsv.Decision) map[dkey]int {
		m := map[dkey]int{}
		for _, d := range ds {
			m[dkey{d.Loop, d.Pass, d.Detail, d.Final}]++
		}
		return m
	}
	want := countDecisions(ref.Decisions())

	c := boundedCache(store.Limits{MaxEntries: 1})
	const n = 32
	var wg sync.WaitGroup
	errs := make(chan string, 2*n)
	for i := 0; i < n; i++ {
		wg.Add(2)
		// Churn: compile b, evicting a's completed entry.
		go func() {
			defer wg.Done()
			_, _, err := c.compile(context.Background(), b, opt, func(_ context.Context, opt core.Options) (*core.Result, error) {
				return core.Compile(b.Parse(), opt)
			})
			if err != nil {
				errs <- "churn: " + err.Error()
			}
		}()
		// Hot requests on a under unique labels.
		go func(i int) {
			defer wg.Done()
			obs := obsv.NewObserver()
			myOpt := opt
			myOpt.Observer = obs
			myOpt.TraceLabel = string(rune('a'+i%26)) + "-lbl"
			// Unique per goroutine: index-stamped label.
			myOpt.TraceLabel = myOpt.TraceLabel + "#" + string(rune('0'+i/26))
			_, _, err := c.compile(context.Background(), a, myOpt, func(_ context.Context, opt core.Options) (*core.Result, error) {
				return core.Compile(a.Parse(), opt)
			})
			if err != nil {
				errs <- "hot: " + err.Error()
				return
			}
			got := countDecisions(obs.Decisions())
			for k, w := range want {
				if got[k] != w {
					errs <- "provenance count mismatch for " + k.loop + "/" + k.pass
					return
				}
			}
			for k := range got {
				if _, ok := want[k]; !ok {
					errs <- "unexpected decision " + k.loop + "/" + k.pass
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	sum, n2 := c.liveBytes()
	if st := c.Stats(); sum != st.Bytes || n2 != st.Entries {
		t.Errorf("byte accounting drifted under churn: stats %d/%d, live %d/%d",
			st.Bytes, st.Entries, sum, n2)
	}
}
