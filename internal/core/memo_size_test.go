package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"polaris/internal/fuzzgen"
	"polaris/internal/parser"
)

// TestUnitMemoBooksWhatItHolds: after a cold compile of mega50k, the
// bytes the unit memo books and the live heap dropping the memo frees
// are within a factor of 1.25 of each other, so a memo bounded in bytes
// holds about what its bound says. When an entry's IR was booked at
// twice its source text, the memo held 2.23 times what it booked. The
// live heap stays under its ceiling: 10 048 208 bytes, the most it read
// once entries kept their source's length and not a copy of its text,
// plus a tenth. With the copy the memo held 11 374 864 bytes, and with
// each record's decisions kept as obsv.Decision structs 15 742 720.
func TestUnitMemoBooksWhatItHolds(t *testing.T) {
	if raceDetector {
		t.Skip("live-heap figures do not hold under the race detector")
	}
	var src string
	for _, spec := range fuzzgen.MegaCorpus() {
		if spec.Name == "mega50k" {
			src = spec.Generate().Source
		}
	}
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	memo := NewUnitMemo(MemoLimits{})
	opt := PolarisOptions()
	opt.UnitMemo = memo
	if _, err := CompileContext(context.Background(), parser.MustParse(src), opt); err != nil {
		t.Fatalf("compile: %v", err)
	}
	stats := memo.Stats()
	held := liveHeap()
	runtime.KeepAlive(memo)
	live := held - liveHeap()
	r := float64(live) / float64(stats.Bytes)
	t.Logf("%d entries: %d bytes live, %d booked (%.2f×)", stats.Entries, live, stats.Bytes, r)
	if r < 0.8 || r > 1.25 {
		t.Errorf("the memo holds %d bytes of live heap and books %d (%.2f×, want 0.8–1.25)", live, stats.Bytes, r)
	}
	const ceiling = 11_053_000
	if live > ceiling {
		t.Errorf("the memo holds %d bytes of live heap, over its ceiling of %d", live, ceiling)
	}
}

// TestEditedUnitBooksWhatItHolds: a parsed table points at the equal
// symbols of the unit parsed before it, so a unit the memo keeps could
// keep that unit's whole symbol block alive. Here the unit before is
// large and a memo hit on every edit, and only the small unit after it
// is new: the live heap the edits add stays within what they book plus
// a margin for heap noise, far below the one large block an edit would
// otherwise retain unbooked. Both ownership modes are held to it: under
// TrustedInput the memo keeps the parsed unit itself, and otherwise a
// clone, whose table points at the parsed unit's symbols.
func TestEditedUnitBooksWhatItHolds(t *testing.T) {
	if raceDetector {
		t.Skip("live-heap figures do not hold under the race detector")
	}
	const locals, edits, slack = 20000, 4, 512 << 10
	var big strings.Builder
	big.WriteString("      SUBROUTINE BIG\n")
	for i := 0; i < locals; i += 6 {
		big.WriteString("      INTEGER ")
		for j := i; j < i+6; j++ {
			if j > i {
				big.WriteByte(',')
			}
			fmt.Fprintf(&big, "V%05d", j)
		}
		big.WriteByte('\n')
	}
	// BIG comes first, so its X is in its own block, and EDITED's X,
	// equal to it, points there.
	big.WriteString("      COMMON /W/ X(10)\n      X(1) = 1.0\n      END\n")
	source := func(edit int) string {
		return big.String() +
			fmt.Sprintf("      SUBROUTINE EDITED\n      COMMON /W/ X(10)\n      X(2) = %d.0\n      END\n", edit) +
			"      PROGRAM MAIN\n      COMMON /W/ X(10)\n      CALL BIG\n      CALL EDITED\n      END\n"
	}
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, trusted := range []bool{false, true} {
		memo := NewUnitMemo(MemoLimits{})
		opt := PolarisOptions()
		opt.UnitMemo, opt.TrustedInput = memo, trusted
		compile := func(edit int) {
			res, err := CompileContext(context.Background(), parser.MustParse(source(edit)), opt)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if edit > 0 && res.UnitsRecompiled != 1 {
				t.Fatalf("edit %d recompiled %d units, want 1", edit, res.UnitsRecompiled)
			}
		}
		compile(0)
		heap0, booked0 := liveHeap(), memo.Stats().Bytes
		for edit := 1; edit <= edits; edit++ {
			compile(edit)
		}
		live, booked := liveHeap()-heap0, memo.Stats().Bytes-booked0
		runtime.KeepAlive(memo)
		t.Logf("trusted=%v: %d edits add %d bytes live, %d booked", trusted, edits, live, booked)
		if live > booked*5/4+slack {
			t.Errorf("trusted=%v: %d edits add %d bytes of live heap and book %d", trusted, edits, live, booked)
		}
	}
}
