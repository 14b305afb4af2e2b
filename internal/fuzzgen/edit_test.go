package fuzzgen_test

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"polaris/internal/fuzzgen"
)

var update = flag.Bool("update", false, "rewrite testdata/edits.sha256 from this build's EditOneUnit")

const editsGolden = "testdata/edits.sha256"

// editCases are the golden's edits of mega10k: unit selectors on both
// sides of zero and past the phase count, and tags of both signs.
func editCases() (ns, tags []int) {
	for i := 0; i < 50; i++ {
		ns = append(ns, i*389-3000)
		tags = append(tags, (i-10)*37)
	}
	return ns, tags
}

// TestEditOneUnitGolden pins EditOneUnit's output on 50 edits of
// mega10k, each as the SHA-256 of the edited source and the name of the
// edited unit; the golden was written by the Split-and-Join version the
// one-pass edit replaced. Sources without a phase, or whose phase never
// ends, come back unchanged with no unit name. An edit allocates the
// edited source and nothing else: its length, rounded up to the whole
// 8 KiB pages the runtime allocates a large object in.
func TestEditOneUnitGolden(t *testing.T) {
	var src string
	for _, spec := range fuzzgen.MegaCorpus() {
		if spec.Name == "mega10k" {
			src = spec.Generate().Source
		}
	}
	ns, tags := editCases()
	var got []string
	for i, n := range ns {
		edited, unit := fuzzgen.EditOneUnit(src, n, tags[i])
		got = append(got, fmt.Sprintf("%x %d %d %s", sha256.Sum256([]byte(edited)), n, tags[i], unit))
	}
	if *update {
		if err := os.WriteFile(editsGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(editsGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d edits, the test makes %d", editsGolden, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("edit %d: got %s, want %s", i, got[i], want[i])
		}
	}

	for _, in := range []string{"", "      INTEGER NN\n", "      SUBROUTINE P0001\n      X = 1\n", "      PROGRAM MAIN\n      END\n"} {
		if edited, unit := fuzzgen.EditOneUnit(in, 3, 1); edited != in || unit != "" {
			t.Errorf("EditOneUnit(%q) = %q, %q: want the source unchanged and no unit", in, edited, unit)
		}
	}

	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.TotalAlloc
	const edits = 10
	for i := 0; i < edits; i++ {
		fuzzgen.EditOneUnit(src, ns[i], tags[i])
	}
	runtime.ReadMemStats(&m)
	if perEdit, limit := (m.TotalAlloc-before)/edits, uint64(len(src)+8<<10); perEdit > limit {
		t.Errorf("an edit of mega10k (%d bytes) allocates %d bytes, over its length + 8 KiB", len(src), perEdit)
	}
}
