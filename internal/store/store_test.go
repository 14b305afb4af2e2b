package store

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"polaris/internal/telemetry"
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

// value is a fill that answers v at size 1.
func value(v string) func(context.Context) (string, int64, error) {
	return func(context.Context) (string, int64, error) { return v, 1, nil }
}

// result is one Do's answer.
type result struct {
	v   string
	out Outcome
	err error
}

// held starts a Do on k whose fill reports on started and then blocks
// until release closes (returning v) or ctx ends (returning its error).
// The call's result arrives on the returned channel.
func held(ctx context.Context, s *Store[string, string], k, v string, started, release chan struct{}) <-chan result {
	done := make(chan result, 1)
	go func() {
		got, out, err := s.Do(ctx, k, func(ctx context.Context) (string, int64, error) {
			close(started)
			select {
			case <-release:
				return v, 1, nil
			case <-ctx.Done():
				return "", 0, ctx.Err()
			}
		})
		done <- result{got, out, err}
	}()
	return done
}

// TestStore is the store's contract, case by case, at the store level:
// the instances (the service's compile cache, the Runner's cache, the
// unit memo) inherit it rather than restate it.
func TestStore(t *testing.T) {
	errBoom := errors.New("boom")
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, s *Store[string, string])
	}{
		{"canceled leader, live waiter retries", func(t *testing.T, s *Store[string, string]) {
			leaderCtx, cancel := context.WithCancel(context.Background())
			defer cancel()
			started := make(chan struct{})
			leader := held(leaderCtx, s, "k", "never", started, nil)
			<-started
			fills := 0
			waiter := make(chan result, 1)
			go func() {
				v, out, err := s.Do(context.Background(), "k", func(context.Context) (string, int64, error) {
					fills++
					return "v", 1, nil
				})
				waiter <- result{v, out, err}
			}()
			waitFor(t, "waiter to join the flight", func() bool { return s.Stats().Hits >= 1 })
			cancel()
			if r := <-leader; !errors.Is(r.err, context.Canceled) {
				t.Fatalf("leader error = %v, want context.Canceled", r.err)
			}
			r := <-waiter
			if r.err != nil || r.v != "v" || r.out.Kind != telemetry.OutcomeCold || fills != 1 {
				t.Fatalf("live waiter: %+v after %d fills, want v from its own retry", r, fills)
			}
			if st := s.Stats(); st.Retries != 1 {
				t.Errorf("retries = %d, want 1", st.Retries)
			}
		}},
		{"waiter honours its own context", func(t *testing.T, s *Store[string, string]) {
			started, release := make(chan struct{}), make(chan struct{})
			leader := held(context.Background(), s, "k", "v", started, release)
			<-started
			ctx, cancel := context.WithCancel(context.Background())
			waiter := make(chan error, 1)
			go func() {
				_, _, err := s.Do(ctx, "k", value("other"))
				waiter <- err
			}()
			waitFor(t, "waiter to join the flight", func() bool { return s.Stats().Hits >= 1 })
			cancel()
			select {
			case err := <-waiter:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("canceled waiter returned %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("canceled waiter still blocked on the leader after 5s")
			}
			close(release)
			if r := <-leader; r.err != nil || r.v != "v" {
				t.Fatalf("leader: %+v", r)
			}
		}},
		{"rider inherits a failing leader's error", func(t *testing.T, s *Store[string, string]) {
			started, release := make(chan struct{}), make(chan struct{})
			lctx := telemetry.WithRequestID(context.Background(), "L")
			leader := make(chan error, 1)
			go func() {
				_, _, err := s.Do(lctx, "k", func(context.Context) (string, int64, error) {
					close(started)
					<-release
					return "", 0, errBoom
				})
				leader <- err
			}()
			<-started
			rider := make(chan result, 1)
			go func() {
				v, out, err := s.Do(context.Background(), "k", func(context.Context) (string, int64, error) {
					t.Error("the rider filled the key itself")
					return "", 0, nil
				})
				rider <- result{v, out, err}
			}()
			waitFor(t, "rider to join the flight", func() bool { return s.Stats().Hits >= 1 })
			close(release)
			if err := <-leader; !errors.Is(err, errBoom) {
				t.Fatalf("leader error = %v", err)
			}
			if r := <-rider; !errors.Is(r.err, errBoom) || r.out.LeaderID != "L" {
				t.Fatalf("rider: %+v, want the leader's error and ID", r)
			}
			// The failed fill left nothing behind: the next caller fills.
			if _, out, err := s.Do(context.Background(), "k", value("v")); err != nil || out.Kind != telemetry.OutcomeCold {
				t.Fatalf("after a failed fill: %+v, %v", out, err)
			}
			if st := s.Stats(); st.Entries != 1 || st.Retries != 0 {
				t.Errorf("stats %+v", st)
			}
		}},
		{"cold, coalesced and hit name the leader", func(t *testing.T, s *Store[string, string]) {
			started, release := make(chan struct{}), make(chan struct{})
			leader := held(telemetry.WithRequestID(context.Background(), "L"), s, "k", "v", started, release)
			<-started
			const waiters = 4
			outs := make(chan result, waiters)
			for i := 0; i < waiters; i++ {
				go func() {
					v, out, err := s.Do(telemetry.WithRequestID(context.Background(), "W"), "k", value("other"))
					outs <- result{v, out, err}
				}()
			}
			waitFor(t, "waiters to join the flight", func() bool { return s.Stats().Hits >= waiters })
			close(release)
			if r := <-leader; r.out != (Outcome{telemetry.OutcomeCold, "L"}) {
				t.Errorf("leader outcome %+v", r.out)
			}
			for i := 0; i < waiters; i++ {
				if r := <-outs; r.err != nil || r.v != "v" || r.out != (Outcome{telemetry.OutcomeCoalesced, "L"}) {
					t.Errorf("waiter: %+v", r)
				}
			}
			if _, out, _ := s.Do(context.Background(), "k", value("other")); out != (Outcome{telemetry.OutcomeCacheHit, "L"}) {
				t.Errorf("hit outcome %+v", out)
			}
			if _, out, _ := s.Do(context.Background(), "anon", value("a")); out != (Outcome{Kind: telemetry.OutcomeCold}) {
				t.Errorf("a leader without a request ID: %+v", out)
			}
		}},
		{"an in-flight entry is pinned past the entry bound", func(t *testing.T, _ *Store[string, string]) {
			s := New[string, string](Limits{MaxEntries: 1})
			_, claims, err := s.Acquire(context.Background(), []string{"pinned"})
			if err != nil || !claims[0].Held() {
				t.Fatalf("claim: %v", err)
			}
			for _, k := range []string{"a", "b", "c"} {
				if _, _, err := s.Do(context.Background(), k, value(k)); err != nil {
					t.Fatal(err)
				}
			}
			if st := s.Stats(); st.Entries != 1 || st.Evictions != 2 {
				t.Fatalf("stats %+v, want 1 entry after 2 evictions", st)
			}
			rider := make(chan result, 1)
			go func() {
				v, out, err := s.Do(context.Background(), "pinned", value("split"))
				rider <- result{v, out, err}
			}()
			waitFor(t, "rider to park on the pinned claim", func() bool { return s.Stats().Hits >= 1 })
			claims[0].Complete("pinned", 1)
			if r := <-rider; r.err != nil || r.v != "pinned" || r.out.Kind != telemetry.OutcomeCoalesced {
				t.Fatalf("rider woke to %+v, want the pinned entry", r)
			}
			if st := s.Stats(); st.Entries != 1 || st.Evictions != 3 || s.LiveBytes() != st.Bytes {
				t.Errorf("stats %+v after the pinned entry joined the LRU", st)
			}
		}},
		{"release, then a waiter claims anew", func(t *testing.T, s *Store[string, string]) {
			_, claims, err := s.Acquire(context.Background(), []string{"k"})
			if err != nil {
				t.Fatal(err)
			}
			woke := make(chan []Claim[string, string], 1)
			go func() {
				_, c, err := s.Acquire(context.Background(), []string{"k"})
				if err != nil {
					t.Error(err)
				}
				woke <- c
			}()
			time.Sleep(10 * time.Millisecond)
			claims[0].Release(context.Canceled)
			c := <-woke
			if !c[0].Held() || c[0] == claims[0] {
				t.Fatalf("waiter after release holds %+v, want a fresh claim", c[0])
			}
			c[0].Complete("v", 1)
			if st := s.Stats(); st.Misses != 2 || st.Entries != 1 {
				t.Errorf("stats %+v", st)
			}
		}},
		{"a key repeated in one batch", func(t *testing.T, s *Store[string, string]) {
			vals, claims, err := s.Acquire(context.Background(), []string{"k", "k", "j"})
			if err != nil {
				t.Fatal(err)
			}
			if !claims[0].Held() || claims[1].Held() || vals[1] != "" || !claims[2].Held() {
				t.Fatalf("claims %+v, want the first occurrence claimed and the repeat left alone", claims)
			}
			claims[0].Complete("v", 1)
			claims[2].Complete("w", 1)
			vals, claims, err = s.Acquire(context.Background(), []string{"k", "k", "j"})
			if err != nil || vals[0] != "v" || vals[1] != "v" || vals[2] != "w" || claims[0].Held() {
				t.Fatalf("warm batch: %v %+v %v", vals, claims, err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, New[string, string](Limits{})) })
	}
}

// TestAcquireDeadlockFree: two goroutines repeatedly claim {a, b} and
// {b, a}, settling every claim, while a third completes and evicts
// through a one-entry bound. A hold-and-wait batch would deadlock here
// within a few rounds; wait-before-claim never holds a claim while it
// waits. Run under -race.
func TestAcquireDeadlockFree(t *testing.T) {
	s := New[string, string](Limits{MaxEntries: 1})
	const rounds = 2000
	var wg sync.WaitGroup
	for _, keys := range [][]string{{"a", "b"}, {"b", "a"}, {"b", "c", "a"}} {
		keys := keys
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				_, claims, err := s.Acquire(context.Background(), keys)
				if err != nil {
					t.Error(err)
					return
				}
				for _, c := range claims {
					if !c.Held() {
						continue
					}
					if i%3 == 0 {
						c.Complete("v", 1)
					} else {
						c.Release(errors.New("abandoned"))
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("overlapping batches deadlocked")
	}
	if st := s.Stats(); st.Entries > 1 || s.LiveBytes() != st.Bytes {
		t.Errorf("stats %+v after the run", st)
	}
}
