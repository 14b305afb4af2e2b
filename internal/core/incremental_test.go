package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"polaris/internal/parser"
	"polaris/internal/store"
)

func memoKeys(n int) [][32]byte {
	keys := make([][32]byte, n)
	for i := range keys {
		keys[i][0] = byte(i + 1)
	}
	return keys
}

// memoClaim is one claim on a UnitMemo's store.
type memoClaim = store.Claim[[32]byte, *unitEntry]

// TestUnitMemoPinsInFlight drives the memo past its entry bound while
// a claim is still in flight and requires the claim to survive: an
// in-flight entry is never on the LRU list, so eviction cannot reach
// it and every compilation waiting on it wakes against the same entry
// (no waiter-set split).
func TestUnitMemoPinsInFlight(t *testing.T) {
	ctx := context.Background()
	m := NewUnitMemo(MemoLimits{MaxEntries: 2})
	keys := memoKeys(6)

	_, claims, err := m.s.Acquire(ctx, keys[:1])
	if err != nil {
		t.Fatal(err)
	}
	inflight := claims[0]
	if !inflight.Held() {
		t.Fatal("first acquire did not claim the slot")
	}

	// Complete four other entries: far past MaxEntries=2, so the LRU
	// churns hard while our claim is still open.
	_, more, err := m.s.Acquire(ctx, keys[1:5])
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range more {
		c.Complete(&unitEntry{rec: &unitRecord{}}, 0)
	}
	st := m.Stats()
	if st.Entries != 2 {
		t.Fatalf("completed entries: got %d, want 2 (MaxEntries)", st.Entries)
	}
	if st.Evictions != 2 {
		t.Fatalf("evictions: got %d, want 2", st.Evictions)
	}

	// A second compilation arriving now must wait on the pinned claim
	// — and wake against the same entry once it completes.
	woke := make(chan []*unitEntry, 1)
	go func() {
		reuse, _, err := m.s.Acquire(ctx, keys[:1])
		if err != nil {
			woke <- nil
			return
		}
		woke <- reuse
	}()
	// Give the waiter time to park; it must not claim a split slot.
	time.Sleep(10 * time.Millisecond)
	pinned := &unitEntry{rec: &unitRecord{}}
	inflight.Complete(pinned, 0)
	select {
	case reuse := <-woke:
		if len(reuse) != 1 || reuse[0] != pinned {
			t.Fatalf("waiter woke against a different entry: got %v, want the pinned in-flight entry", reuse)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke after the pinned entry completed")
	}
	if got := m.Stats().Hits; got != 1 {
		t.Fatalf("hits after waiter reuse: got %d, want 1", got)
	}
}

// TestUnitMemoReleaseRetry aborts an in-flight claim and requires the
// waiter to retry and claim the slot itself, rather than consuming the
// failed entry.
func TestUnitMemoReleaseRetry(t *testing.T) {
	ctx := context.Background()
	m := NewUnitMemo(MemoLimits{})
	keys := memoKeys(1)

	_, claims, err := m.s.Acquire(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	type got struct {
		reuse  []*unitEntry
		claims []memoClaim
	}
	woke := make(chan got, 1)
	go func() {
		r, c, err := m.s.Acquire(ctx, keys)
		if err != nil {
			woke <- got{}
			return
		}
		woke <- got{r, c}
	}()
	time.Sleep(10 * time.Millisecond)
	claims[0].Release(context.Canceled)
	select {
	case g := <-woke:
		if !g.claims[0].Held() {
			t.Fatalf("waiter did not claim after release: reuse=%v claim=%v", g.reuse[0], g.claims[0])
		}
		if g.claims[0] == claims[0] {
			t.Fatal("waiter claimed the released (failed) entry itself")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke after release")
	}
}

// TestUnitMemoAcquireCanceled parks a waiter on an in-flight claim and
// cancels its context: acquire must return the context error promptly
// without disturbing the leader's claim.
func TestUnitMemoAcquireCanceled(t *testing.T) {
	m := NewUnitMemo(MemoLimits{})
	keys := memoKeys(1)
	_, claims, err := m.s.Acquire(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := m.s.Acquire(ctx, keys)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("canceled waiter: got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled waiter never returned")
	}
	// The leader's claim is untouched; completing it must still work.
	claims[0].Complete(&unitEntry{rec: &unitRecord{}}, 0)
	if got := m.Stats().Entries; got != 1 {
		t.Fatalf("entries after complete: got %d, want 1", got)
	}
}

// TestUnitMemoDuplicateKeys hands acquire a key list with a repeat:
// the second occurrence must be left unmemoized (no value, no claim)
// instead of deadlocking on the first occurrence's own claim.
func TestUnitMemoDuplicateKeys(t *testing.T) {
	m := NewUnitMemo(MemoLimits{})
	keys := memoKeys(1)
	keys = append(keys, keys[0])
	done := make(chan struct{})
	var reuse []*unitEntry
	var claims []memoClaim
	go func() {
		defer close(done)
		var err error
		reuse, claims, err = m.s.Acquire(context.Background(), keys)
		if err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("acquire deadlocked on a duplicate key")
	}
	if !claims[0].Held() {
		t.Fatal("first occurrence was not claimed")
	}
	if reuse[1] != nil || claims[1].Held() {
		t.Fatal("duplicate occurrence was not left unmemoized")
	}
}

// TestUnitHashLocality parses a multi-unit program, edits one unit's
// body, and requires exactly that unit's hash to change: the edit
// neither feeds a constant into another unit nor inlines differently,
// so the dirty set of an incremental recompile is exactly one unit.
func TestUnitHashLocality(t *testing.T) {
	const base = `      PROGRAM MAIN
      REAL A(100), B(100)
      INTEGER I
      COMMON /BLK/ A, B
      DO I = 1, 100
        A(I) = B(I) + 1.0
      END DO
      END

      SUBROUTINE S1(N)
      INTEGER N
      REAL A(100), B(100)
      INTEGER I
      COMMON /BLK/ A, B
      DO I = 1, 100
        A(I) = A(I) * 2.0
      END DO
      END

      SUBROUTINE S2(DUMMY)
      REAL DUMMY
      REAL A(100), B(100)
      INTEGER J
      COMMON /BLK/ A, B
      DO J = 1, 100
        B(J) = A(J) + B(J)
      END DO
      END
`
	edited := strings.Replace(base, "A(I) = A(I) * 2.0", "A(I) = A(I) * 3.0", 1)
	if edited == base {
		t.Fatal("edit did not apply")
	}
	hashes := func(src string) map[string][32]byte {
		prog, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		out := map[string][32]byte{}
		for _, u := range prog.Units {
			out[u.Name] = newUnitHasher(PolarisOptions()).key("ir", u.Fortran())
		}
		return out
	}
	hb, he := hashes(base), hashes(edited)
	if len(hb) != 3 || len(he) != 3 {
		t.Fatalf("unit counts: %d and %d, want 3", len(hb), len(he))
	}
	for name, h := range hb {
		changed := he[name] != h
		if name == "S1" && !changed {
			t.Errorf("unit %s: hash unchanged by the edit", name)
		}
		if name != "S1" && changed {
			t.Errorf("unit %s: hash changed by an edit to S1", name)
		}
	}
	// And the fingerprint feeds the hash: a different technique set
	// must never alias the same unit text.
	prog, err := parser.ParseProgram(base)
	if err != nil {
		t.Fatal(err)
	}
	opt2 := PolarisOptions()
	opt2.RangeTest = false
	if text := prog.Units[0].Fortran(); newUnitHasher(PolarisOptions()).key("ir", text) == newUnitHasher(opt2).key("ir", text) {
		t.Error("unit hash ignores the technique fingerprint")
	}
}

// TestUnitKeysArePinned holds the unit keys to their bytes: both values
// were printed by the commit before unitHasher, whose unitHash and
// srcHash wrote each part to a fresh digest with io.WriteString, and
// re-printed when unitMemoVersion became v3 and again at v4. A change of key is a change
// of unitMemoVersion, never a side effect.
func TestUnitKeysArePinned(t *testing.T) {
	prog, err := parser.ParseProgram("      SUBROUTINE S(A, N)\n      REAL A(N)\n      DO I = 1, N\n        A(I) = A(I) * 2.0\n      END DO\n      END\n")
	if err != nil {
		t.Fatal(err)
	}
	u, uh := prog.Units[0], newUnitHasher(PolarisOptions())
	// One hasher, three keys: the digest is reset between them.
	for i := 0; i < 2; i++ {
		if got := fmt.Sprintf("%x", uh.key("ir", u.Fortran())); got != "294ae81b98ce3fa2d9a1ab3f6cf10694f1fdc1ddac7d665b20c0ade6f19163af" {
			t.Errorf("ir key %s", got)
		}
	}
	if got := fmt.Sprintf("%x", uh.key("src", prog.FuncsSig, "S:N=4", u.Source)); got != "ba2331b62824b5c369af9eb5534e325492985e56440a1ad247218ccfaaf50398" {
		t.Errorf("src key %s", got)
	}
	// A text longer than the hasher's copy buffer goes through in pieces.
	long := strings.Repeat("      X = X + 1\n", 1000)
	h := sha256.New()
	h.Write([]byte(unitMemoVersion + "\x00" + incrFingerprint(PolarisOptions()) + "\x00ir\x00" + long))
	if got := uh.key("ir", long); !bytes.Equal(got[:], h.Sum(nil)) {
		t.Error("a 16 KB text does not hash to the digest of its bytes")
	}
}
