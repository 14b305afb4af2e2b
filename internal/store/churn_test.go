package store

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"polaris/internal/telemetry"
)

// TestCacheEvictChurnAccounting is the supersede-then-evict audit as a
// regression test: a tiny bounded store hammered concurrently with a
// key space several times its capacity, mixing successful leaders,
// failing leaders (key released for retry), and canceled leaders
// (waiters supersede the dead leader and re-elect), so entries are
// continuously inserted, superseded, and evicted. At every quiesce
// point the incremental byte counter must equal the ground truth
// recomputed from the LRU list, the map must hold exactly the entries
// the list does, and both bounds must hold — any drift here is the
// slow leak that only shows up after days of fleet churn.
func TestCacheEvictChurnAccounting(t *testing.T) {
	const (
		maxEntries = 4
		maxBytes   = 32 << 10
		workers    = 16
		iters      = 300
		keySpace   = 12
	)
	c := New[int, string](Limits{MaxEntries: maxEntries, MaxBytes: maxBytes})
	errBoom := errors.New("boom")

	// Entries carry nontrivial, key-dependent accounted bytes.
	okFill := func(k int) func(context.Context) (string, int64, error) {
		return func(context.Context) (string, int64, error) {
			return "entry", int64(1024 + 384*(1+k%3)), nil
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				k := rng.Intn(keySpace)
				// own is the error this call's fill returns if the call ends
				// up leading.
				var own error
				fill := okFill(k)
				switch rng.Intn(4) {
				case 0: // failing leader: key must be released, nothing accounted
					own = errBoom
				case 1: // canceled leader: waiters supersede and re-elect
					own = context.Canceled
				} // otherwise a successful fill (insert, maybe evicting)
				if own != nil {
					fill = func(context.Context) (string, int64, error) { return "", 0, own }
				}
				_, out, err := c.Do(context.Background(), k, fill)
				switch {
				case out.Kind == telemetry.OutcomeCold:
					// The call led: it ran its own fill and reports exactly
					// that fill's answer.
					if !errors.Is(err, own) {
						t.Errorf("leader: got error %v, its own fill returns %v", err, own)
					}
				case err != nil && !errors.Is(err, errBoom):
					// The call rode another leader's fill and inherits its
					// answer: success, or a failing leader's errBoom. Never
					// context.Canceled: a live waiter retries past a canceled
					// leader (and reports its own error only if it then leads).
					t.Errorf("coalesced behind another leader: unexpected error %v", err)
				}
			}
		}()
	}
	wg.Wait()

	check := func(when string) {
		st := c.Stats()
		if live := c.LiveBytes(); live != st.Bytes {
			t.Errorf("%s: byte accounting drifted: incremental %d, ground truth %d", when, st.Bytes, live)
		}
		if st.Entries > maxEntries {
			t.Errorf("%s: %d entries exceeds the %d-entry bound", when, st.Entries, maxEntries)
		}
		if st.Bytes > maxBytes {
			t.Errorf("%s: %d bytes exceeds the %d-byte bound", when, st.Bytes, maxBytes)
		}
		c.mu.Lock()
		mapped := len(c.m)
		listed := c.lru.Len()
		c.mu.Unlock()
		if mapped != listed {
			t.Errorf("%s: %d map entries vs %d LRU items — an evicted entry leaked or an item was orphaned", when, mapped, listed)
		}
	}
	check("after churn")

	// Settle: one more successful pass over the whole key space (every
	// insert now evicts) and re-verify — catches drift that only the
	// final eviction wave would expose.
	for k := 0; k < keySpace; k++ {
		if _, _, err := c.Do(context.Background(), k, okFill(k)); err != nil {
			t.Fatalf("settle fill %d: %v", k, err)
		}
	}
	check("after settle")

	if c.Stats().Evictions == 0 {
		t.Error("churn produced no evictions — the test is not exercising eviction")
	}
}
