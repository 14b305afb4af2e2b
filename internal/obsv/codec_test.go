package obsv_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"polaris/internal/core"
	"polaris/internal/fuzzgen"
	"polaris/internal/obsv"
	"polaris/internal/parser"
	"polaris/internal/suite"
)

// TestCodecRoundTrip encodes the decision lists real compiles record —
// the 16 suite programs, fuzzgen seeds 1–300, mega10k and a strided
// loop — and reads them back: each list, by DecodeList and by
// ReplayList into an observer, must equal the original record for
// record, once the reader's label is applied. Every list is encoded beside a second one, the
// compile's final records, so a list is read from a shared table and
// from behind another list. Between them the compiles emit every pass's
// records, final and not, with and without evidence.
func TestCodecRoundTrip(t *testing.T) {
	type program struct{ name, src string }
	var progs []program
	for _, p := range suite.All() {
		progs = append(progs, program{p.Name, p.Source})
	}
	for seed := uint64(1); seed <= 300; seed++ {
		progs = append(progs, program{fmt.Sprintf("fuzz%d", seed), fuzzgen.Generate(fuzzgen.Config{Seed: seed}).Source})
	}
	progs = append(progs, program{"mega10k", fuzzgen.MegaCorpus()[0].Generate().Source})
	// None of those steps a loop by more than one: this one normalizes.
	progs = append(progs, program{"strided", "      PROGRAM STRIDED\n      REAL A(100)\n      DO I = 1, 99, 2\n" +
		"        A(I) = 1.0\n      END DO\n      END\n"})

	passes := map[string]bool{}
	var final, nonFinal, noEvidence, evidence bool
	for _, p := range progs {
		prog, err := parser.ParseProgram(p.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", p.name, err)
		}
		obs := obsv.NewObserver()
		opt := core.PolarisOptions()
		opt.Observer, opt.TraceLabel = obs, p.name
		if _, err := core.CompileContext(context.Background(), prog, opt); err != nil {
			t.Fatalf("%s: compile: %v", p.name, err)
		}
		all := obs.Decisions()
		lists := [][]obsv.Decision{all, obs.FinalDecisions(p.name)}
		enc := obsv.EncodeLists(lists...)
		if n := obsv.ListsLen(enc); n != len(lists[0])+len(lists[1]) {
			t.Fatalf("%s: ListsLen %d, lists of %d and %d", p.name, n, len(lists[0]), len(lists[1]))
		}
		for k, want := range lists {
			want = slices.Clone(want)
			for i := range want {
				want[i].Label = "reader"
			}
			got, err := obsv.DecodeList(enc, k, "reader")
			if err != nil {
				t.Fatalf("%s: DecodeList %d: %v", p.name, k, err)
			}
			into := obsv.NewObserver()
			if err := into.ReplayList(enc, k, "reader"); err != nil {
				t.Fatalf("%s: ReplayList %d: %v", p.name, k, err)
			}
			for _, have := range [][]obsv.Decision{got, into.Decisions()} {
				if len(have) != len(want) {
					t.Fatalf("%s: list %d: %d records back, %d in", p.name, k, len(have), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(have[i], want[i]) {
						t.Fatalf("%s: list %d record %d:\n got %#v\nwant %#v", p.name, k, i, have[i], want[i])
					}
				}
			}
		}
		for _, d := range all {
			passes[d.Pass] = true
			final, nonFinal = final || d.Final, nonFinal || !d.Final
			noEvidence, evidence = noEvidence || d.Evidence == nil, evidence || len(d.Evidence) > 0
		}
	}
	for _, pass := range []string{"interproc-constants", "inline", "normalize", "induction", "dependence",
		"privatization", "reduction", "lrpd", "strength-reduction", "verdict"} {
		if !passes[pass] {
			t.Errorf("no %s record among the lists", pass)
		}
	}
	if !final || !nonFinal || !noEvidence || !evidence {
		t.Errorf("final %v, non-final %v, without evidence %v, with evidence %v: want every kind", final, nonFinal, noEvidence, evidence)
	}
}

// TestCodecRejects: a list read from a truncated encoding, or past its
// last list, is an error, never a panic, and leaves an observer as it
// was.
func TestCodecRejects(t *testing.T) {
	ds := []obsv.Decision{{Unit: "S", Loop: "S/L10", Pass: "verdict", Verdict: "doall", Evidence: []string{"e"}, Final: true}}
	enc := obsv.EncodeLists(ds, nil)
	if got, err := obsv.DecodeList(enc, 1, ""); err != nil || got != nil {
		t.Fatalf("the empty list: %v, %v", got, err)
	}
	for _, bad := range []struct {
		enc string
		k   int
	}{{enc[:len(enc)-2], 0}, {enc, 2}, {"", 0}} {
		if _, err := obsv.DecodeList(bad.enc, bad.k, ""); err == nil {
			t.Errorf("DecodeList(%q, %d) accepted", bad.enc, bad.k)
		}
		o := obsv.NewObserver()
		if err := o.ReplayList(bad.enc, bad.k, ""); err == nil || len(o.Decisions()) != 0 {
			t.Errorf("ReplayList(%q, %d): %v, %d records kept", bad.enc, bad.k, err, len(o.Decisions()))
		}
	}
}
