package suite

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"polaris/internal/core"
	"polaris/internal/obsv"
	"polaris/internal/telemetry"
)

// TestCacheEvictChurnAccounting is the supersede-then-evict audit as a
// regression test: a tiny bounded cache hammered concurrently with a
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
	c := NewCache(CacheLimits{MaxEntries: maxEntries, MaxBytes: maxBytes})
	errBoom := errors.New("boom")
	obs := obsv.NewObserver()

	prog := func(k int) Program {
		return Program{
			Name:   fmt.Sprintf("churn-%d", k),
			Source: fmt.Sprintf("      PROGRAM C%d\n      END\n", k),
		}
	}
	okCompile := func(k int) func(context.Context, core.Options) (*core.Result, error) {
		return func(_ context.Context, opt core.Options) (*core.Result, error) {
			// Emit provenance so entries carry nontrivial accounted bytes.
			for i := 0; i < 1+k%3; i++ {
				opt.Observer.Decision(obsv.Decision{
					Label: opt.TraceLabel, Unit: "C", Loop: fmt.Sprintf("C/L%d", 10*(i+1)),
					Pass: "churn", Verdict: "parallel", Detail: "synthetic entry for accounting churn",
					Evidence: []string{"evidence line one", "evidence line two"},
				})
			}
			return &core.Result{}, nil
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
				p := prog(k)
				opt := core.Options{}
				if k%2 == 0 {
					opt = core.PolarisOptions()
				}
				opt.Observer = obs
				opt.TraceLabel = fmt.Sprintf("w%d-%d", w, i)
				// own is the error this call's compile function returns if the
				// call ends up leading.
				var own error
				fn := okCompile(k)
				switch rng.Intn(4) {
				case 0: // failing leader: key must be released, nothing accounted
					own = errBoom
				case 1: // canceled leader: waiters supersede and re-elect
					own = context.Canceled
				} // otherwise a successful compile (insert, maybe evicting)
				if own != nil {
					fn = func(context.Context, core.Options) (*core.Result, error) { return nil, own }
				}
				_, out, err := c.CompileOutcome(context.Background(), KeyOf(p.Source, opt), p, opt, fn)
				switch {
				case out.Kind == telemetry.OutcomeCold:
					// The call led: it ran its own function and reports
					// exactly that function's answer.
					if !errors.Is(err, own) {
						t.Errorf("leader: got error %v, its own compile returns %v", err, own)
					}
				case err != nil && !errors.Is(err, errBoom):
					// The call rode another leader's compile and inherits its
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
		mapped := len(c.compiled) + len(c.baseline) + len(c.serial)
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
		opt := core.PolarisOptions()
		opt.Observer = obs
		opt.TraceLabel = fmt.Sprintf("settle-%d", k)
		if _, _, err := c.CompileOutcome(context.Background(), KeyOf(prog(k).Source, opt), prog(k), opt, okCompile(k)); err != nil {
			t.Fatalf("settle compile %d: %v", k, err)
		}
	}
	check("after settle")

	if c.Stats().Evictions == 0 {
		t.Error("churn produced no evictions — the test is not exercising evictLocked")
	}
}
