package codegen

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"hash"
	"os"
	"strings"
	"testing"

	"polaris/internal/core"
	"polaris/internal/fuzzgen"
	"polaris/internal/parser"
	"polaris/internal/rt"
	"polaris/internal/suite"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/emitgo.sha256")

// runtimeAfterProcs checks that an emitted program carries rt.Runtime
// verbatim right after its const defaultProcs line.
func runtimeAfterProcs(out string) error {
	const procs = "\nconst defaultProcs = "
	i := strings.Index(out, procs)
	if i < 0 {
		return errors.New("no const defaultProcs line")
	}
	i += len(procs)
	j := i + strings.IndexByte(out[i:], '\n') + 1
	if j <= i || !strings.HasPrefix(out[j:], rt.Runtime) {
		return errors.New("the const defaultProcs line is not followed by rt.Runtime")
	}
	return nil
}

// TestEmitGoDeterministic catches map-iteration leaks into the output:
// two emissions of the same result must be byte-identical.
func TestEmitGoDeterministic(t *testing.T) {
	p, _ := suite.ByName("mdg")
	res, err := core.Compile(p.Parse(), core.PolarisOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := EmitGo(res, GoOptions{Processors: 8, Label: "mdg"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EmitGo(res, GoOptions{Processors: 8, Label: "mdg"})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("EmitGo is not deterministic across calls")
	}
}

const goSumsPath = "testdata/emitgo.sha256"

// refusedSrc is a program the Go back end refuses partway through its
// main unit, after the runtime and the COMMON state are written: a
// MAX of an integer and a real has no static kind.
const refusedSrc = `
      PROGRAM P
      INTEGER I
      REAL X, A(10)
      DO I = 1, 10
        A(I) = MAX(I, X)
      END DO
      END
`

// sumWriter hashes what it is written and counts the bytes.
type sumWriter struct {
	h hash.Hash
	n int
}

func (w *sumWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return w.h.Write(p)
}

// TestEmitGoSums holds WriteGo, and EmitGo's string, to the bytes the
// commit before the fmt-free writer produced, for every program the
// suite_cold workload emits, for track (Figure 6's LRPD program) and for
// mega10k (testdata/emitgo.sha256 was written by that commit with
// -update, and re-pinned once since, when two comments of the runtime
// were reworded; track's line was written by the emitter before WriteGo
// existed), and holds that each carries internal/rt's runtime verbatim
// after its const defaultProcs line. A program the back end refuses is
// pinned by its refusal reason in place of a sum, and a refused WriteGo
// writes nothing. Each program is a subtest, so a failure names what
// moved.
func TestEmitGoSums(t *testing.T) {
	names := []string{}
	src := map[string]string{}
	for _, p := range suite.All() {
		names = append(names, p.Name)
		src[p.Name] = p.Source
	}
	names = append(names, "track", "mega10k", "refused")
	src["track"] = suite.Track().Source
	src["mega10k"] = fuzzgen.MegaCorpus()[0].Generate().Source
	src["refused"] = refusedSrc
	emit := func(t *testing.T, name string) string {
		t.Helper()
		res, err := core.Compile(parser.MustParse(src[name]), core.PolarisOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		opt := GoOptions{Processors: 8, Label: name}
		w := sumWriter{h: sha256.New()}
		err = WriteGo(&w, res, opt)
		out, emitErr := EmitGo(res, opt)
		if ue, ok := err.(*UnsupportedError); ok {
			if w.n != 0 {
				t.Errorf("%s: a refused WriteGo wrote %d bytes", name, w.n)
			}
			if emitErr == nil || emitErr.Error() != err.Error() {
				t.Errorf("%s: WriteGo refused (%v), EmitGo answered %v", name, err, emitErr)
			}
			return "refused  " + name + "  " + ue.Reason
		}
		if err != nil || emitErr != nil {
			t.Fatalf("%s: WriteGo: %v; EmitGo: %v", name, err, emitErr)
		}
		sum := hex.EncodeToString(w.h.Sum(nil))
		if sha256Hex(out) != sum {
			t.Errorf("%s: EmitGo's string (%d bytes) is not what WriteGo wrote (%d bytes)", name, len(out), w.n)
		}
		if err := runtimeAfterProcs(out); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		return sum + "  " + name
	}
	if *updateGolden {
		var out strings.Builder
		for _, name := range names {
			out.WriteString(emit(t, name) + "\n")
		}
		if err := os.WriteFile(goSumsPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goSumsPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(names) {
		t.Fatalf("%s has %d lines, want %d", goSumsPath, len(want), len(names))
	}
	for i, name := range names {
		t.Run(name, func(t *testing.T) {
			if got := emit(t, name); got != want[i] {
				t.Errorf("emitted Go reads\n\t%s\nthe pinned\n\t%s", got, want[i])
			}
		})
	}
}
