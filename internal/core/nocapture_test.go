package core_test

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"polaris/internal/core"
	"polaris/internal/deps"
	"polaris/internal/obsv"
	"polaris/internal/parser"
)

// observerAllocs counts the objects the heap profile attributes to an
// Observer recording decisions, to a capture being made, or to the two
// whole-program prologue passes rendering their Decision evidence, over
// the life of the process. Meaningful between two calls while
// runtime.MemProfileRate is 1.
func observerAllocs(t *testing.T) (recording, evidence int64) {
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
				if strings.Contains(f.Function, "obsv.(*Observer).Decision") ||
					strings.Contains(f.Function, "obsv.(*Observer).appendDecisions") ||
					strings.Contains(f.Function, "obsv.NewCapture") {
					recording += r.AllocObjects
					break
				}
				if strings.Contains(f.Function, "core.evidenceLines") {
					evidence += r.AllocObjects
					break
				}
				if !more {
					break
				}
			}
		}
		return recording, evidence
	}
}

// TestNoObserverNoCapture: a compilation nobody observes records
// nothing on the unit-parallel schedule either. The pool used to give
// every unit a detached capture and replay it into the nil observer
// after the barrier, and interproc-constants and inline used to sort
// and format one evidence line per propagated constant and per skipped
// callee before handing them to it. With every allocation profiled, no
// object may come from recording a decision, making a capture or
// rendering evidence at 2 or 8 workers, and the Result must be the one
// the serial schedule gives. A compilation that is observed shows the
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
	compile := func(workers int, obs *obsv.Observer) outcome {
		prog, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		opt := core.PolarisOptions()
		opt.UnitWorkers = workers
		opt.Observer = obs
		opt.Stats = &deps.Stats{}
		res, err := core.CompileContext(context.Background(), prog, opt)
		if err != nil {
			t.Fatalf("compile (workers=%d): %v", workers, err)
		}
		o := outcome{stats: *opt.Stats, indvars: res.InductionVars, ipc: res.InterprocConstants,
			norm: res.NormalizedLoops, sr: res.StrengthReduced}
		for _, lr := range res.Loops {
			lr.Loop = nil // compare the verdict data, not IR pointers
			o.loops = append(o.loops, lr)
		}
		return o
	}
	serial := compile(1, nil)
	if len(serial.loops) == 0 {
		t.Fatal("megaprogram produced no loops")
	}

	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	rec0, ev0 := observerAllocs(t)
	compile(2, obsv.NewObserver())
	if rec, ev := observerAllocs(t); rec <= rec0 || ev <= ev0 {
		t.Fatalf("an observed 2-worker compile shows %d recording and %d evidence allocations: the profile is not seeing them", rec-rec0, ev-ev0)
	}
	for _, workers := range []int{2, 8} {
		rec0, ev0 := observerAllocs(t)
		got := compile(workers, nil)
		if rec, ev := observerAllocs(t); rec != rec0 || ev != ev0 {
			t.Errorf("workers=%d, no observer: %d objects allocated recording decisions, %d rendering evidence", workers, rec-rec0, ev-ev0)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d, no observer: Result differs from the serial schedule's", workers)
		}
	}
}
