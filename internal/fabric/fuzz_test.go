package fabric

import (
	"encoding/binary"
	"maps"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"polaris/internal/core"
	"polaris/internal/obsv"
	"polaris/internal/parser"
	"polaris/internal/suite"
)

// fuzzKey is the route key every seed entry is encoded under and every
// candidate is decoded for.
const fuzzKey = "fuzz-key"

// handEntry assembles an entry around a hand-written body, for the
// seeds that lie about what follows.
func handEntry(table []string, body []byte, rendering string) []byte {
	b := binary.AppendUvarint([]byte(entryMagic), EntrySchema)
	b = binary.AppendUvarint(b, uint64(len(fuzzKey)))
	b = append(b, fuzzKey...)
	b = binary.AppendUvarint(b, uint64(len(table)))
	for _, s := range table {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	b = binary.AppendUvarint(b, uint64(len(body)))
	b = append(b, body...)
	return append(b, rendering...)
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// frontEndAlloc is what the parser and the renderer spend on the
// rendering an entry carries, run on their own: the share of a decode
// the wire's encoding does not decide.
func frontEndAlloc(entry string) uint64 {
	at, ok := renderingAt(entry)
	if !ok {
		return 0
	}
	rendering := entry[at:]
	before := totalAlloc()
	if prog, err := parser.ParseProgram(rendering); err == nil {
		var b strings.Builder
		b.Grow(len(rendering))
		prog.WriteFortran(&b)
	}
	return totalAlloc() - before
}

// FuzzDecodeEntry feeds DecodeEntry what a hostile or broken owner
// could send ([bounded]): the 16 suite entries, their truncations and
// bit-flips, entries that lie about a count, a string's length and a
// table index, and whatever the fuzzer derives from them. The checksum
// is taken from the candidate itself — whoever controls the body
// controls the checksum header — so every check behind it is reached.
// DecodeEntry must reject the candidate or return a result that is a
// fixed point of the wire (encode, decode, encode gives the same
// bytes), never panic, and never allocate more than a fixed multiple of
// what it was handed. Two multiples hold at once.
//
// The wire's own share — the decode less what parsing the rendering and
// rendering it again spend, measured per candidate — stays under 40× the
// input + 64 KiB. That multiple comes from the Go values an entry's
// bytes become, since no count is believed past what the bytes left
// could hold: a one-byte list element or table entry becomes a 16-byte
// string header, an 11-byte decision a 184-byte obsv.Decision (17×), and
// an 8-byte loop a 104-byte core.LoopReport and a slot for a 144-byte
// ir.ParInfo (31×), the costliest per byte. The mutation maps' slots cost
// 28× the two bytes that name them; the report at both caps is a seed.
// The suite seeds measure at most 5.8× their length; the bound is the
// constructed worst with room.
//
// The whole decode, front end included, stays under 512× the input +
// 1 MiB. The front end's share is not the wire's to shrink — the same
// parser reads every client's source, and a dense argument list costs
// it ~100× its bytes — but a peer's say-so must not buy more than this
// either. A 4000-term sum is a seed: while the renderer built an
// expression's text by concatenation, its 8 KB entry allocated 18 MB.
//
// VerifyEntry proves every candidate too, as a peer fill proves what it
// fetched. It must never panic, must stay inside both bounds, and must
// accept exactly what DecodeEntry accepts, rejecting the rest with the
// same error.
//
// DecodeView reads every candidate too, as a cache hit reads the entry
// it holds. It must never panic, must stay inside the wire's share of
// 40× + 64 KiB whether it accepts or rejects, and on every entry
// DecodeEntry accepts must yield the same loops, decisions under the same
// label, and report.
func FuzzDecodeEntry(f *testing.F) {
	for _, p := range suite.All() {
		opt := core.PolarisOptions()
		cap := obsv.NewCapture(nil)
		opt.Observer = cap
		res, err := core.Compile(p.Parse(), opt)
		if err != nil {
			f.Fatalf("compile %s: %v", p.Name, err)
		}
		entry, _, err := EncodeEntry(fuzzKey, res, cap.Decisions())
		if err != nil {
			f.Fatalf("encode %s: %v", p.Name, err)
		}
		f.Add([]byte(entry))
		f.Add([]byte(entry[:len(entry)/2]))
		flipped := []byte(entry)
		flipped[len(flipped)/3] ^= 0x04
		f.Add(flipped)
	}
	const prog = "      PROGRAM P\n      X = 1\n      END\n"
	empty := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}                                      // scalars, lists, maps, loops, decisions, total, events
	f.Add(handEntry(nil, empty, prog))                                                 // honest: no loops, no decisions
	f.Add(handEntry([]string{"L"}, []byte{0, 0, 0, 1, 7}, prog))                       // an induction variable at index 7 of a table of 1
	f.Add(handEntry(nil, binary.AppendUvarint([]byte{0, 0, 0, 0, 0, 0}, 1<<40), prog)) // 2⁴⁰ loops in a few bytes
	capped := []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, maxReportEvents}                       // the report at both caps, one key over and over
	for e := 0; e < maxReportEvents; e++ {
		capped = append(capped, 0, 0, 0, maxMutationKeys)
		for k := 0; k < maxMutationKeys; k++ {
			capped = append(capped, 0, 0)
		}
		capped = append(capped, 0)
	}
	f.Add(handEntry([]string{"k"}, capped, prog))
	lie := handEntry([]string{"abc"}, empty, prog)
	lie[len(entryMagic)+1+1+len(fuzzKey)+1] = 100 // the table's one string says 100 bytes
	f.Add(lie)
	sum, err := parser.ParseProgram("      PROGRAM P\n      X = 1" + strings.Repeat("+1", 3999) + "\n      END\n")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(handEntry(nil, empty, sum.Fortran())) // the 4000-term sum

	f.Fuzz(func(t *testing.T, entry []byte) {
		const wireMultiple, wireFixed = 40, 64 << 10
		const multiple, fixed = 512, 1 << 20
		stored := string(entry)
		frontEnd := frontEndAlloc(stored)
		bounded := func(what string, got uint64) {
			if limit := uint64(wireMultiple*len(entry)+wireFixed) + frontEnd; got > limit {
				t.Fatalf("%s %d bytes allocated %d, over %d×input + %d on top of the front end's %d", what, len(entry), got, wireMultiple, wireFixed, frontEnd)
			}
			if limit := uint64(multiple*len(entry) + fixed); got > limit {
				t.Fatalf("%s %d bytes allocated %d in all, over %d×input + %d", what, len(entry), got, multiple, fixed)
			}
		}
		before := totalAlloc()
		res, decisions, err := DecodeEntry(stored, sumHex(stored), fuzzKey, "fuzz")
		bounded("decoding", totalAlloc()-before)

		before = totalAlloc()
		perr := VerifyEntry(stored, sumHex(stored), fuzzKey)
		bounded("verifying", totalAlloc()-before)
		if (err == nil) != (perr == nil) || err != nil && err.Error() != perr.Error() {
			t.Fatalf("DecodeEntry and VerifyEntry disagree: %v, %v", err, perr)
		}

		before = totalAlloc()
		v, verr := DecodeView(stored, "fuzz")
		if spent := totalAlloc() - before; spent > uint64(wireMultiple*len(entry)+wireFixed) {
			t.Fatalf("viewing %d bytes allocated %d, over %d×input + %d", len(entry), spent, wireMultiple, wireFixed)
		}
		if verr == nil {
			defer v.Release()
		}
		if err != nil {
			return
		}
		if verr != nil {
			t.Fatalf("DecodeEntry accepts an entry the view rejects: %v", verr)
		}
		sameView(t, v, res, decisions)
		first, sum, err := EncodeEntry(fuzzKey, res, decisions)
		if err != nil {
			t.Fatalf("an accepted entry does not encode: %v", err)
		}
		res2, decisions2, err := DecodeEntry(first, sum, fuzzKey, "fuzz")
		if err != nil {
			t.Fatalf("an accepted entry's own encoding is rejected: %v", err)
		}
		second, _, err := EncodeEntry(fuzzKey, res2, decisions2)
		if err != nil {
			t.Fatal(err)
		}
		if first != second {
			t.Fatalf("an accepted entry is not a fixed point of the wire:\n%q\n%q", first, second)
		}
	})
}

// sameView fails t unless the view holds what the full decode made of
// the same entry: the loops, the decisions, and the report, where a View's empty report stands for the
// absent one.
func sameView(t *testing.T, v *View, res *core.Result, decisions []obsv.Decision) {
	t.Helper()
	if len(v.Loops) != len(res.Loops) {
		t.Fatalf("the view holds %d loops, the decode %d", len(v.Loops), len(res.Loops))
	}
	for i, l := range res.Loops {
		if !reflect.DeepEqual(v.Loops[i], l) {
			t.Fatalf("loop %d: the view holds %+v, the decode %+v", i, v.Loops[i], l)
		}
	}
	if !reflect.DeepEqual(v.Decisions, decisions) && len(v.Decisions)+len(decisions) > 0 {
		t.Fatalf("the view's %d decisions differ from the decode's %d", len(v.Decisions), len(decisions))
	}
	var events []obsv.Span
	if res.Report != nil {
		events = res.Report.Events
		if v.Report.TotalNS != res.Report.TotalNS {
			t.Fatalf("the view's report totals %d ns, the decode's %d", v.Report.TotalNS, res.Report.TotalNS)
		}
	}
	if len(v.Report.Events) != len(events) {
		t.Fatalf("the view's report has %d events, the decode's %d", len(v.Report.Events), len(events))
	}
	for i, ev := range events {
		got := v.Report.Events[i]
		if got.Seq != ev.Seq || got.Pass != ev.Pass || got.DurationNS != ev.DurationNS || got.Err != ev.Err || !maps.Equal(got.Mutations, ev.Mutations) {
			t.Fatalf("event %d: the view holds %+v, the decode %+v", i, got, ev)
		}
	}
}
