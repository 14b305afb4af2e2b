package oracle

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"polaris/internal/fuzzgen"
	"polaris/internal/suite"
)

// TestNativeOracleSuite runs the fifth oracle mode over the full
// benchmark suite: every program must lower to Go (no refusals), build
// under -race, and reproduce the interpreter's serial reference
// bit-for-bit in both its serial and parallel harness modes.
func TestNativeOracleSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("native differential builds real binaries")
	}
	ctx := context.Background()
	cfg := Config{Processors: 4, Native: true, NativeRace: true}
	for _, p := range suite.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			if _, err := EmitNative(ctx, p.Name, p.Source, cfg.Processors); err != nil {
				if errors.Is(err, ErrNativeUnsupported) {
					t.Fatalf("suite program refused by the Go backend: %v", err)
				}
				t.Fatal(err)
			}
			ref, err := runRef(ctx, p.Source)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			for _, d := range checkNative(ctx, p.Name, p.Source, ref, cfg) {
				t.Errorf("%s: %s", d.Mode, d.Detail)
			}
		})
	}
}

// TestNativeOracleFuzzRace runs the native differential, built with
// -race, over the fuzzgen corpus. Fuzzgen arithmetic is exact by
// construction, so tolerance is 0 and every mismatch is a bug in the
// emitter or in the analyses it consumed.
func TestNativeOracleFuzzRace(t *testing.T) {
	if testing.Short() {
		t.Skip("native differential builds real binaries")
	}
	ctx := context.Background()
	cfg := Config{Processors: 4, Native: true, NativeRace: true}
	const seeds = 20
	skips := 0
	for seed := uint64(1); seed <= seeds; seed++ {
		label := fmt.Sprintf("fuzz-%d", seed)
		p := fuzzgen.Generate(fuzzgen.Config{Seed: seed})
		ref, err := runRef(ctx, p.Source)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		if _, err := EmitNative(ctx, label, p.Source, cfg.Processors); err != nil {
			if errors.Is(err, ErrNativeUnsupported) {
				skips++
				t.Logf("%s: skipped: %v", label, err)
				continue
			}
			t.Fatalf("%s: %v", label, err)
		}
		for _, d := range checkNative(ctx, label, p.Source, ref, cfg) {
			t.Errorf("%s %s: %s", label, d.Mode, d.Detail)
		}
	}
	if skips > seeds/4 {
		t.Errorf("native backend refused %d of %d fuzzgen programs; the supported subset regressed", skips, seeds)
	}
}

// TestNativeProcSweep builds one DOALL + reduction program with -race
// and runs it at P in {1, 2, 8}: all final states must be identical
// bit-for-bit and no run may leak goroutines.
func TestNativeProcSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("native differential builds real binaries")
	}
	const src = `
      PROGRAM SWEEP
      COMMON /OUT/ A, S, B
      REAL A(400), B(400), S
      INTEGER I
      REAL T
      S = 0.0
      DO I = 1, 400
        B(I) = I * 0.5
      END DO
      DO I = 1, 400
        T = B(I) * 3.0
        A(I) = T + 1.0
        S = S + T
      END DO
      END
`
	ctx := context.Background()
	goSrc, err := EmitNative(ctx, "sweep", src, 8)
	if err != nil {
		t.Fatal(err)
	}
	bin, cleanup, err := BuildNative(ctx, goSrc, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()

	var base *NativeResult
	for _, p := range []int{1, 2, 8} {
		res, err := RunNativeBinary(ctx, bin, "-p", strconv.Itoa(p))
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if res.Leaked != 0 {
			t.Errorf("p=%d: %d goroutines leaked", p, res.Leaked)
		}
		if len(res.State) == 0 {
			t.Fatalf("p=%d: no state output", p)
		}
		if base == nil {
			base = res
			continue
		}
		if d := Diff(base.State, res.State, 0); d != "" {
			t.Errorf("p=%d differs from p=1: %s", p, d)
		}
	}
}

// TestNativeRaceStillReported: a racy binary built the way the native
// mode builds its programs, its goroutines joined before exit as the
// emitted harness joins them, still fails with the race runtime's exit
// status 66 under the exit sleep RunNativeBinary turns off, with and
// without GORACE options of the caller's.
func TestNativeRaceStillReported(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real binary")
	}
	const racy = `package main

import "sync"

var n int

func main() {
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); n++ }()
	}
	wg.Wait()
}
`
	ctx := context.Background()
	bin, cleanup, err := BuildNative(ctx, racy, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	for _, gorace := range []string{"", "history_size=1"} {
		t.Setenv("GORACE", gorace)
		_, err := RunNativeBinary(ctx, bin)
		if err == nil || !strings.Contains(err.Error(), "exit status 66") || !strings.Contains(err.Error(), "DATA RACE") {
			t.Errorf("GORACE=%q: racy binary gave %v, want exit status 66 and a race report", gorace, err)
		}
	}
}
