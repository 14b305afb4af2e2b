package codegen

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"polaris/internal/core"
	"polaris/internal/fabric"
	"polaris/internal/fuzzgen"
	"polaris/internal/parser"
	"polaris/internal/suite"
)

const fortranGoldenPath = "testdata/emitfortran.sha256"

// fortranGoldenSources are the programs whose emitted Fortran is pinned:
// the 16 suite programs and the two megaprograms the benchmark compiles.
func fortranGoldenSources(t *testing.T) (names []string, src map[string]string) {
	t.Helper()
	src = map[string]string{}
	for _, p := range suite.All() {
		names = append(names, p.Name)
		src[p.Name] = p.Source
	}
	for _, spec := range fuzzgen.MegaCorpus() {
		if spec.Name == "mega10k" || spec.Name == "mega50k" && !testing.Short() {
			names = append(names, spec.Name)
			src[spec.Name] = spec.Generate().Source
		}
	}
	return names, src
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestEmitFortranGolden holds EmitFortran to the bytes the commit before
// the one-buffer render produced (testdata/emitfortran.sha256 was
// written by that commit: this file copied into it and run with
// -update; refreshing it from the tree under test compares the renderer
// with itself). Each program is emitted three ways that must all give
// those bytes: from a cold compile, from a compile every unit of which
// replays from a warm unit memo, and from the result a peer reconstructs
// out of a fabric entry.
func TestEmitFortranGolden(t *testing.T) {
	names, src := fortranGoldenSources(t)
	if *updateGolden {
		if testing.Short() {
			t.Fatal("-update writes mega50k's line too: run it without -short")
		}
		var out strings.Builder
		for _, name := range names {
			res, err := core.Compile(parser.MustParse(src[name]), core.PolarisOptions())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fmt.Fprintf(&out, "%s  %s\n", sha256Hex(EmitFortran(res)), name)
		}
		if err := os.WriteFile(fortranGoldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(fortranGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if sum, name, ok := strings.Cut(sc.Text(), "  "); ok {
			want[name] = sum
		}
	}
	if len(want) != 18 {
		t.Fatalf("%s names %d programs, want 18", fortranGoldenPath, len(want))
	}
	for _, name := range names {
		check := func(path string, res *core.Result) {
			t.Helper()
			if got := sha256Hex(EmitFortran(res)); got != want[name] {
				t.Errorf("%s, %s: emitted Fortran hashes to %.12s, the parent's to %.12s", name, path, got, want[name])
			}
		}
		cold, err := core.Compile(parser.MustParse(src[name]), core.PolarisOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check("cold", cold)

		opt := core.PolarisOptions()
		opt.UnitMemo = core.NewUnitMemo(core.MemoLimits{})
		if _, err := core.Compile(parser.MustParse(src[name]), opt); err != nil {
			t.Fatalf("%s: filling the memo: %v", name, err)
		}
		warm, err := core.Compile(parser.MustParse(src[name]), opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if warm.UnitsRecompiled != 0 {
			t.Errorf("%s: %d units recompiled against a warm memo", name, warm.UnitsRecompiled)
		}
		check("through the unit memo", warm)

		entry, sum, err := fabric.EncodeEntry(name, cold, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		filled, _, err := fabric.DecodeEntry(entry, sum, name, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check("after a fabric fill", filled)
	}
}

// TestEmitAllocs holds each back end's emission to a budget of bytes
// allocated per byte of output, best of three emissions of every
// program in its row.
//
// Fortran renders header and program into one builder sized from the
// source, so emitting allocates little more than the text (the buffer
// runs up to a half over it; expression strings make the rest).
// Rendering the program into one doubling builder and copying that
// under the header into a second allocated near eight times the output.
//
// Go writes its lines and expressions straight into one buffer sized
// from the source (twelve bytes a source byte, which most of the suite
// does not fill), with no fmt and no string per expression node: 1.79
// times the suite's output, where formatting each line through fmt and
// building each node as a string allocated 3.34 times. WriteGo into a
// fresh builder allocates that builder, grown once to the program, and
// its own buffer without the runtime: 2.26 times, where EmitGo's string
// copied into a builder, as Result.Emit did, allocated 2.86 times.
func TestEmitAllocs(t *testing.T) {
	compile := func(src string) *core.Result {
		res, err := core.Compile(parser.MustParse(src), core.PolarisOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var suiteResults []*core.Result
	for _, p := range suite.All() {
		suiteResults = append(suiteResults, compile(p.Source))
	}
	emitGo := func(res *core.Result) string {
		out, err := EmitGo(res, GoOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	writeGo := func(res *core.Result) string {
		var b strings.Builder
		if err := WriteGo(&b, res, GoOptions{}); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, row := range []struct {
		name    string
		results []*core.Result
		emit    func(*core.Result) string
		budget  float64
	}{
		{"EmitFortran(mega10k)", []*core.Result{compile(fuzzgen.MegaCorpus()[0].Generate().Source)}, EmitFortran, 2.5},
		{"EmitGo(suite)", suiteResults, emitGo, 2.0},
		{"WriteGo(suite)", suiteResults, writeGo, 2.5},
	} {
		var allocated, output uint64
		for _, res := range row.results {
			best := uint64(1 << 62)
			var out string
			for i := 0; i < 3; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				out = row.emit(res)
				runtime.ReadMemStats(&after)
				if d := after.TotalAlloc - before.TotalAlloc; d < best {
					best = d
				}
			}
			allocated += best
			output += uint64(len(out))
		}
		ratio := float64(allocated) / float64(output)
		t.Logf("%s: %d bytes allocated for %d bytes of output (%.2fx)", row.name, allocated, output, ratio)
		if ratio > row.budget {
			t.Errorf("%s allocates %.2f times its output; budget %.1f", row.name, ratio, row.budget)
		}
	}
}
