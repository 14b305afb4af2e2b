package core

import (
	"context"
	"crypto/sha256"
	"runtime"
	"testing"

	"polaris/internal/fuzzgen"
	"polaris/internal/ir"
	"polaris/internal/parser"
)

// claimAll claims a memo slot for every unit of work, as the unit-hash
// pass does for the units it finds dirty, so st.commit completes them
// all in one batch.
func claimAll(t testing.TB, memo *UnitMemo, work *ir.Program) *incrState {
	t.Helper()
	st := &incrState{memo: memo, keys: make([][32]byte, len(work.Units)), keyLen: make([]int, len(work.Units))}
	for i, u := range work.Units {
		st.keys[i] = sha256.Sum256([]byte(u.Name))
		st.recs = append(st.recs, &unitRecord{})
	}
	_, claims, err := memo.s.Acquire(context.Background(), st.keys)
	if err != nil {
		t.Fatal(err)
	}
	st.claims = claims
	return st
}

// symbolSet is the distinct symbols the units' tables point at.
func symbolSet(units []*ir.ProgramUnit) map[*ir.Symbol]bool {
	set := map[*ir.Symbol]bool{}
	for _, u := range units {
		for _, s := range u.Symbols.All() {
			set[s] = true
		}
	}
	return set
}

// TestCommitSharesWhatTheParseShared: a commit detaches every table it
// stores in one batch, so the entries of a cold mega10k hold exactly as
// many distinct symbols as the tables they were given (a parse shares
// each repeated COMMON or PARAMETER symbol, and a clone keeps that
// sharing), and none of them is the parse's or the clone's: an entry
// pins no parse block. Detached one table at a time, the entries held
// each shared symbol once per unit.
func TestCommitSharesWhatTheParseShared(t *testing.T) {
	src := fuzzgen.MegaCorpus()[0].Generate().Source // mega10k
	parsed := parser.MustParse(src)
	work := parsed.Clone()
	given, before := symbolSet(work.Units), symbolSet(parsed.Units)
	for s := range given {
		before[s] = true
	}
	st := claimAll(t, NewUnitMemo(MemoLimits{}), work)
	st.commit(work)
	held, refs := symbolSet(work.Units), 0
	for _, u := range work.Units {
		refs += len(u.Symbols.All())
		for _, s := range u.Symbols.All() {
			if before[s] {
				t.Fatalf("%s's entry holds the input's symbol %s", u.Name, s.Name)
			}
		}
	}
	t.Logf("%d units: %d symbol references, %d distinct given, %d distinct held", len(work.Units), refs, len(given), len(held))
	if len(held) != len(given) {
		t.Errorf("the entries hold %d distinct symbols, their tables were given %d", len(held), len(given))
	}
}

// TestOneUnitCommitAllocs: a one-unit edit commits one unit, and a
// batch of one table builds no map and keeps its batch on the stack, so
// the commit allocates what detaching the one table does: 10
// allocations and 712 bytes for mega10k's second unit, a clone of its
// parse. It copies no source text; when it did, it took 11 and 904.
// The figures are the least of three rounds of 64 commits: on a loaded
// machine a round can read 82 bytes more a commit, one stray
// runtime allocation of some 5 KB inside the window.
func TestOneUnitCommitAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const runs = 64
	unit := parser.MustParse(fuzzgen.MegaCorpus()[0].Generate().Source).Units[1]
	allocs, bytes := uint64(1<<62), uint64(1<<62)
	for range 3 {
		states := make([]*incrState, runs)
		works := make([]*ir.Program, runs)
		for i := range states {
			works[i] = &ir.Program{Units: []*ir.ProgramUnit{unit.Clone()}}
			states[i] = claimAll(t, NewUnitMemo(MemoLimits{}), works[i])
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, st := range states {
			st.commit(works[i])
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, (after.Mallocs-before.Mallocs)/runs)
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	t.Logf("a one-unit commit of %s: %d allocations, %d bytes", unit.Name, allocs, bytes)
	if allocs > 10 || bytes > 712 {
		t.Errorf("a one-unit commit allocates %d times and %d bytes, budget 10 and 712", allocs, bytes)
	}
}
