package core_test

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"polaris/internal/core"
	"polaris/internal/deps"
	"polaris/internal/fuzzgen"
	"polaris/internal/obsv"
	"polaris/internal/parser"
)

// megaFor generates one deterministic megaprogram of about lines lines:
// hundreds of units, each running every per-unit pass.
func megaFor(t testing.TB, lines int) *fuzzgen.MegaProgram {
	t.Helper()
	return fuzzgen.GenerateMega(fuzzgen.MegaConfig{Seed: 1001, TargetLines: lines})
}

// verdictBuilders are the functions that build a loop's final record.
var verdictBuilders = []string{"core.verdictTechnique", "core.verdictRecord", "core.scalarVerdictRecord", "core.strengthVerdict"}

// decoders are the functions that read a unit memo entry's provenance.
var decoders = []string{"obsv.DecodeList", "obsv.(*Observer).ReplayList", "obsv.listAt", "obsv.(*Reader)."}

// observerAllocs counts the objects the heap profile attributes to an
// Observer recording decisions, to a capture being made, to the two
// whole-program prologue passes rendering their Decision evidence, to
// building a loop's final record, or to decoding a memo entry's
// provenance, over the life of the process. Meaningful between two
// calls while runtime.MemProfileRate is 1.
func observerAllocs(t *testing.T) (recording, evidence, verdicts, decoding int64) {
	t.Helper()
	// The profile is published two collections behind.
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); !ok {
			continue
		}
		for _, r := range recs[:n] {
			frames := runtime.CallersFrames(r.Stack())
			for {
				f, more := frames.Next()
				if slices.ContainsFunc(decoders, func(d string) bool { return strings.Contains(f.Function, d) }) {
					decoding += r.AllocObjects
					break
				}
				if strings.Contains(f.Function, "obsv.(*Observer).Decision") ||
					strings.Contains(f.Function, "obsv.(*Observer).ReplayDecisions") ||
					strings.Contains(f.Function, "obsv.NewCapture") {
					recording += r.AllocObjects
					break
				}
				if strings.Contains(f.Function, "core.evidenceLines") {
					evidence += r.AllocObjects
					break
				}
				if slices.ContainsFunc(verdictBuilders, func(b string) bool { return strings.HasSuffix(f.Function, b) }) {
					verdicts += r.AllocObjects
					break
				}
				if !more {
					break
				}
			}
		}
		return recording, evidence, verdicts, decoding
	}
}

// TestNoObserverNoCapture: a compilation nobody observes records
// nothing. interproc-constants and inline used to sort and format one
// evidence line per propagated constant and per skipped callee before
// handing them to the nil observer, and analysis built every loop's
// final record only to drop it. With every allocation profiled, no
// object may come from recording a decision, making a capture,
// rendering evidence or building a final record, and the Result must be
// the one an observed compilation gives. Nor may an edit compile
// against a warm mega10k memo decode a clean unit's provenance, which
// only an observer reads. The observed compilations also show the
// counts are not zero for want of looking.
func TestNoObserverNoCapture(t *testing.T) {
	src := megaFor(t, 4000).Source
	type outcome struct {
		loops    []core.LoopReport
		stats    deps.Stats
		indvars  []string
		ipc      map[string]int64
		norm, sr int
	}
	compile := func(obs *obsv.Observer) outcome {
		prog, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		opt := core.PolarisOptions()
		opt.Observer = obs
		opt.Stats = &deps.Stats{}
		res, err := core.CompileContext(context.Background(), prog, opt)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return outcome{loops: res.Loops, stats: *opt.Stats, indvars: res.InductionVars, ipc: res.InterprocConstants,
			norm: res.NormalizedLoops, sr: res.StrengthReduced}
	}

	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	rec0, ev0, v0, _ := observerAllocs(t)
	observed := compile(obsv.NewObserver())
	if rec, ev, v, _ := observerAllocs(t); rec <= rec0 || ev <= ev0 || v <= v0 {
		t.Fatalf("an observed compile shows %d recording, %d evidence and %d final-record allocations: the profile is not seeing them", rec-rec0, ev-ev0, v-v0)
	}
	if len(observed.loops) == 0 {
		t.Fatal("megaprogram produced no loops")
	}
	rec0, ev0, v0, _ = observerAllocs(t)
	got := compile(nil)
	if rec, ev, v, _ := observerAllocs(t); rec != rec0 || ev != ev0 || v != v0 {
		t.Errorf("no observer: %d objects allocated recording decisions, %d rendering evidence, %d building final records", rec-rec0, ev-ev0, v-v0)
	}
	if !reflect.DeepEqual(got, observed) {
		t.Error("no observer: Result differs from the observed compile's")
	}

	mega := fuzzgen.MegaCorpus()[0].Generate().Source // mega10k
	memo := core.NewUnitMemo(core.MemoLimits{})
	edit := func(tag int, obs *obsv.Observer) {
		src := mega
		if tag > 0 {
			src, _ = fuzzgen.EditOneUnit(mega, 3, tag)
		}
		opt := core.PolarisOptions()
		opt.UnitMemo, opt.Observer = memo, obs
		res, err := core.CompileContext(context.Background(), parser.MustParse(src), opt)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		if tag > 0 && res.UnitsRecompiled != 1 {
			t.Fatalf("edit %d recompiled %d units, want 1", tag, res.UnitsRecompiled)
		}
	}
	edit(0, nil)
	_, _, _, dec0 := observerAllocs(t)
	edit(1, obsv.NewObserver())
	if _, _, _, dec := observerAllocs(t); dec <= dec0 {
		t.Fatal("an observed edit compile shows no decoding allocations: the profile is not seeing them")
	}
	_, _, _, dec0 = observerAllocs(t)
	edit(2, nil)
	if _, _, _, dec := observerAllocs(t); dec != dec0 {
		t.Errorf("no observer: an edit compile allocated %d objects decoding provenance", dec-dec0)
	}
}
