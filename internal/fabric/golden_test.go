package fabric

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"polaris/internal/core"
	"polaris/internal/fuzzgen"
	"polaris/internal/obsv"
	"polaris/internal/parser"
	"polaris/internal/suite"
)

var updateEntries = flag.Bool("update-entries", false, "rewrite testdata/entries.sha256")

const entriesGoldenPath = "testdata/entries.sha256"

// TestEntryBytesGolden holds the wire bytes of an entry to a checked-in
// SHA-256 per program: the 16 suite programs and mega10k, compiled with
// their decision records and without the timing report, whose bytes do
// not repeat. Peers of different builds read each other's entries, so
// a change to the compiler's records that reaches the wire shows here.
// testdata/entries.sha256 was written by the commit before the loop
// records stopped carrying their DO statement; refreshing it from the
// tree under test compares the encoder with itself.
//
// Each entry is encoded three ways that must give those bytes: from a
// cold compile, from a compile every unit of which replays from a warm
// unit memo, and from the result DecodeEntry reconstructs out of the
// first.
func TestEntryBytesGolden(t *testing.T) {
	var names []string
	src := map[string]string{}
	for _, p := range suite.All() {
		names = append(names, p.Name)
		src[p.Name] = p.Source
	}
	mega := fuzzgen.MegaCorpus()[0]
	names = append(names, mega.Name)
	src[mega.Name] = mega.Generate().Source

	compile := func(name string, memo *core.UnitMemo) (*core.Result, []obsv.Decision) {
		t.Helper()
		opt := core.PolarisOptions()
		opt.UnitMemo = memo
		cap := obsv.NewCapture(nil)
		opt.Observer = cap
		res, err := core.Compile(parser.MustParse(src[name]), opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res.Report = nil
		return res, cap.Decisions()
	}
	encode := func(name string, res *core.Result, decisions []obsv.Decision) string {
		t.Helper()
		entry, sum, err := EncodeEntry(name, res, decisions)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sum != sumHex(entry) {
			t.Fatalf("%s: EncodeEntry's checksum is not the entry's", name)
		}
		return entry
	}

	if *updateEntries {
		var out strings.Builder
		for _, name := range names {
			res, decisions := compile(name, nil)
			fmt.Fprintf(&out, "%s  %s\n", sumHex(encode(name, res, decisions)), name)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(entriesGoldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(entriesGoldenPath)
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
	if len(want) != len(names) {
		t.Fatalf("%s names %d programs, want %d", entriesGoldenPath, len(want), len(names))
	}
	for _, name := range names {
		check := func(path, entry string) {
			t.Helper()
			if got := sumHex(entry); got != want[name] {
				t.Errorf("%s, %s: the entry hashes to %.12s, the golden to %.12s", name, path, got, want[name])
			}
		}
		cold, decisions := compile(name, nil)
		entry := encode(name, cold, decisions)
		check("cold", entry)

		memo := core.NewUnitMemo(core.MemoLimits{})
		compile(name, memo)
		warm, warmDecisions := compile(name, memo)
		if warm.UnitsRecompiled != 0 {
			t.Errorf("%s: %d units recompiled against a warm memo", name, warm.UnitsRecompiled)
		}
		check("through the unit memo", encode(name, warm, warmDecisions))

		filled, filledDecisions, err := DecodeEntry(entry, sumHex(entry), name, "")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check("re-encoded after a fabric fill", encode(name, filled, filledDecisions))
	}
}
