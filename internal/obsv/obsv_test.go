package obsv

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestTraceWriterOrdersConcurrentEmits drives one shared TraceWriter
// from many goroutines (the suite Runner's -j N shape) and checks the
// emitted stream carries a gapless, strictly increasing sequence — the
// total-order contract trace consumers rely on. Run under -race this
// also proves the writer is data-race free.
func TestTraceWriterOrdersConcurrentEmits(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	const workers, emits = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < emits; i++ {
				switch i % 3 {
				case 0:
					tw.EmitSpan(Span{Label: "l", Pass: "p", Seq: i})
				case 1:
					tw.EmitDecision(Decision{Label: "l", Pass: "dependence", Loop: "MAIN/L10"})
				default:
					tw.EmitRun(RunMetrics{Label: "l", TotalWork: int64(i)})
				}
			}
		}(w)
	}
	wg.Wait()
	if err := tw.Err(); err != nil {
		t.Fatalf("trace writer error: %v", err)
	}
	envs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(envs) != workers*emits {
		t.Fatalf("got %d trace lines, want %d", len(envs), workers*emits)
	}
	for i, e := range envs {
		if e.Seq != int64(i) {
			t.Fatalf("line %d carries seq %d; stream is not in sequence order", i, e.Seq)
		}
		if e.V != SchemaVersion {
			t.Fatalf("line %d has version %q, want %q", i, e.V, SchemaVersion)
		}
	}
}

// TestReadTraceRejectsUnknownMajor pins the compatibility contract:
// majors are breaking, so a reader that speaks major 2 must refuse a
// v3 stream rather than silently misread it.
func TestReadTraceRejectsUnknownMajor(t *testing.T) {
	in := strings.NewReader(`{"v":"3.0","seq":0,"type":"span","span":{"pass":"x","seq":0,"duration_ns":0}}`)
	_, err := ReadTrace(in)
	if err == nil {
		t.Fatal("ReadTrace accepted a major-3 stream")
	}
	if !strings.Contains(err.Error(), "unsupported schema version") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestReadTraceAcceptsNewerMinor: minors are additive; a 2.9 stream
// with an unknown field must decode cleanly.
func TestReadTraceAcceptsNewerMinor(t *testing.T) {
	in := strings.NewReader(`{"v":"2.9","seq":0,"type":"span","span":{"pass":"x","seq":0,"duration_ns":1,"future_field":true}}` + "\n\n")
	envs, err := ReadTrace(in)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(envs) != 1 || envs[0].Span == nil || envs[0].Span.Pass != "x" {
		t.Fatalf("bad decode: %+v", envs)
	}
}

func TestReadTraceMalformedVersion(t *testing.T) {
	in := strings.NewReader(`{"v":"two","seq":0,"type":"span"}`)
	if _, err := ReadTrace(in); err == nil || !strings.Contains(err.Error(), "malformed schema version") {
		t.Fatalf("want malformed-version error, got %v", err)
	}
}

// TestNilObserverAndWriterAreSafe: every method must be callable on a
// nil receiver so instrumentation sites need no guards.
func TestNilObserverAndWriterAreSafe(t *testing.T) {
	var o *Observer
	o.Count("x", 1)
	o.Decision(Decision{Pass: "dependence"})
	o.Span(Span{Pass: "p"})
	o.Run(RunMetrics{})
	o.Reserve(8)
	o.SetTrace(nil)
	if err := o.TraceErr(); err != nil {
		t.Fatalf("nil observer TraceErr: %v", err)
	}
	if o.Counters() != nil || o.Decisions() != nil || o.Spans() != nil || o.Runs() != nil {
		t.Fatal("nil observer returned non-nil data")
	}
	if o.FinalDecisions("") != nil {
		t.Fatal("nil observer returned decisions")
	}

	var tw *TraceWriter
	tw.EmitSpan(Span{})
	tw.EmitDecision(Decision{})
	tw.EmitRun(RunMetrics{})
	if err := tw.Err(); err != nil {
		t.Fatalf("nil writer Err: %v", err)
	}
	if NewTraceWriter(nil) != nil {
		t.Fatal("NewTraceWriter(nil) should yield a nil writer")
	}
}

// TestFinalDecisionsFilter: the final records under a label, in the
// order they were recorded, without the evidence trail or another
// label's records.
func TestFinalDecisionsFilter(t *testing.T) {
	o := NewObserver()
	// Evidence records must not appear among finals.
	o.Decision(Decision{Label: "p", Unit: "MAIN", Loop: "MAIN/L10", Pass: "dependence"})
	o.Decision(Decision{Label: "p", Unit: "MAIN", Loop: "MAIN/L10", Pass: "verdict", Verdict: "doall", Final: true})
	o.Decision(Decision{Label: "p", Unit: "MAIN", Loop: "MAIN/L90", Pass: "strength-reduction", Verdict: "serial", Final: true})
	// A different label must not leak in.
	o.Decision(Decision{Label: "q", Unit: "MAIN", Loop: "MAIN/L10", Pass: "verdict", Verdict: "doall", Final: true})
	o.Decision(Decision{Label: "p", Unit: "SUB", Loop: "SUB/L20", Pass: "verdict", Verdict: "serial", Final: true})

	finals := o.FinalDecisions("p")
	wantOrder := []string{"MAIN/L10", "MAIN/L90", "SUB/L20"}
	if len(finals) != len(wantOrder) {
		t.Fatalf("got %d finals, want %d: %+v", len(finals), len(wantOrder), finals)
	}
	for i, want := range wantOrder {
		if finals[i].Loop != want || finals[i].Label != "p" {
			t.Fatalf("finals[%d] = %s under %q, want %s under p", i, finals[i].Loop, finals[i].Label, want)
		}
	}
	if got := o.FinalDecisions(""); len(got) != 4 || got[2].Label != "q" {
		t.Fatalf("all-labels finals: got %+v, want 4 in recording order", got)
	}
}

func TestExplainDecision(t *testing.T) {
	cases := []struct {
		d    Decision
		want string
	}{
		{Decision{Loop: "MAIN/L40", Index: "J", Verdict: "doall", Technique: "range test"},
			"MAIN/L40 DO J: DOALL — range test"},
		{Decision{Loop: "MAIN/L60", Index: "I", Verdict: "lrpd", Technique: "speculative run-time PD test on X"},
			"MAIN/L60 DO I: LRPD — speculative run-time PD test on X"},
		{Decision{Loop: "MAIN/L20", Index: "K", Verdict: "serial", Blocker: "assumed dependence on A"},
			"MAIN/L20 DO K: serial — blocked by assumed dependence on A"},
		{Decision{Loop: "MAIN/L20", Verdict: "serial", Detail: "fallback detail"},
			"MAIN/L20: serial — blocked by fallback detail"},
	}
	for _, c := range cases {
		if got := ExplainDecision(c.d); got != c.want {
			t.Errorf("ExplainDecision(%+v)\n got %q\nwant %q", c.d, got, c.want)
		}
	}
}

func TestMatchLoop(t *testing.T) {
	d := Decision{Loop: "MAIN/L30", Index: "K"}
	for _, q := range []string{"", "MAIN/L30", "main/l30", "L30", "l30", "K", "k"} {
		if !MatchLoop(d, q) {
			t.Errorf("MatchLoop(%q) = false, want true", q)
		}
	}
	for _, q := range []string{"L40", "MAIN", "J", "MAIN/L3"} {
		if MatchLoop(d, q) {
			t.Errorf("MatchLoop(%q) = true, want false", q)
		}
	}
}

func TestCounters(t *testing.T) {
	o := NewObserver()
	o.Count("loops_analyzed", 3)
	o.Count("loops_analyzed", 2)
	o.Count("loops_doall", 1)
	got := o.Counters()
	if got["loops_analyzed"] != 5 || got["loops_doall"] != 1 {
		t.Fatalf("counters = %v", got)
	}
	got["loops_analyzed"] = 99
	if o.Counters()["loops_analyzed"] != 5 {
		t.Fatal("Counters returned a live map, want a copy")
	}
}

// TestReplayDecisionsMatchesOneByOne: a batch replay leaves the
// observer, its trace and the observer it forwards to exactly as
// recording the relabeled records one at a time does, leaves the
// caller's slice alone, and grows the record list once however long
// the batch is, and a long list by doubling.
func TestReplayDecisionsMatchesOneByOne(t *testing.T) {
	ds := make([]Decision, 30)
	for i := range ds {
		ds[i] = Decision{Label: "filled-by", Pass: "dependence", Loop: "MAIN/L" + string(rune('A'+i)), Evidence: []string{"e"}}
	}
	record := func(batch bool) (string, []Decision, []Decision) {
		var buf bytes.Buffer
		next := NewObserver()
		next.SetTrace(NewTraceWriter(&buf))
		next.Decision(Decision{Label: "hit", Pass: "inline"})
		o := NewCapture(next)
		if batch {
			o.ReplayDecisions(ds, "hit")
		} else {
			for _, d := range ds {
				d.Label = "hit"
				o.Decision(d)
			}
		}
		o.Decision(Decision{Label: "hit", Pass: "verdict", Final: true})
		return buf.String(), o.Decisions(), next.Decisions()
	}
	wantTrace, wantOwn, wantNext := record(false)
	gotTrace, gotOwn, gotNext := record(true)
	if gotTrace != wantTrace {
		t.Errorf("trace after a batch replay:\n%s\nwant:\n%s", gotTrace, wantTrace)
	}
	if len(gotOwn) != len(ds)+1 || len(gotNext) != len(ds)+2 {
		t.Fatalf("recorded %d and forwarded %d decisions, want %d and %d", len(gotOwn), len(gotNext), len(ds)+1, len(ds)+2)
	}
	if !reflect.DeepEqual(gotOwn, wantOwn) {
		t.Errorf("recorded decisions:\n%+v\nwant:\n%+v", gotOwn, wantOwn)
	}
	if !reflect.DeepEqual(gotNext, wantNext) {
		t.Errorf("forwarded decisions:\n%+v\nwant:\n%+v", gotNext, wantNext)
	}
	if ds[0].Label != "filled-by" {
		t.Errorf("ReplayDecisions relabeled the caller's records")
	}
	// One block of records on top of what an empty observer costs;
	// record by record it was six growths and a heap copy per record.
	empty := testing.AllocsPerRun(20, func() { NewObserver().ReplayDecisions(nil, "hit") })
	if allocs := testing.AllocsPerRun(20, func() { NewObserver().ReplayDecisions(ds, "hit") }); allocs > empty+1 {
		t.Errorf("replaying %d decisions into a fresh observer allocates %.0f times, an empty observer %.0f", len(ds), allocs, empty)
	}
	// With no trace attached, recording allocates only to grow the list.
	o := NewObserver()
	o.ReplayDecisions(ds, "hit")
	o.decisions = o.decisions[:0]
	if allocs := testing.AllocsPerRun(20, func() { o.Decision(ds[0]); o.decisions = o.decisions[:0] }); allocs != 0 {
		t.Errorf("Decision with no trace allocates %.0f times a record, want 0", allocs)
	}
	// A list replayed a record at a time doubles: 14 blocks for 5000
	// records, where append, a quarter at a time past 256, took 17.
	o = NewObserver()
	blocks, last := 0, 0
	for range 5000 {
		o.ReplayDecisions(ds[:1], "hit")
		if c := cap(o.decisions); c != last {
			blocks, last = blocks+1, c
		}
	}
	if blocks > 14 {
		t.Errorf("5000 one-record replays grew the list %d times, want at most 14", blocks)
	}
}

// TestTakeDecisions: taking hands over the observer's own array and
// leaves it empty, and the list explains without an observer.
// TestReserveGrowsOnce: a reservation makes room for exactly that many
// more records, in the observer and the one it forwards to, and they
// then arrive without growing either list.
func TestReserveGrowsOnce(t *testing.T) {
	next := NewObserver()
	o := NewCapture(next)
	o.Decision(Decision{Pass: "inline"})
	o.Reserve(5)
	for _, obs := range []*Observer{o, next} {
		if got := cap(obs.decisions); got != 6 {
			t.Fatalf("after a reservation of 5 behind 1 record: cap %d, want 6", got)
		}
	}
	o.ReplayDecisions(make([]Decision, 3), "r")
	o.Decision(Decision{Pass: "verdict"})
	o.Decision(Decision{Pass: "verdict"})
	for _, obs := range []*Observer{o, next} {
		if len(obs.decisions) != 6 || cap(obs.decisions) != 6 {
			t.Fatalf("6 records into a reservation of 6: len %d cap %d", len(obs.decisions), cap(obs.decisions))
		}
	}
}

func TestTakeDecisions(t *testing.T) {
	o := NewObserver()
	o.Decision(Decision{Label: "p", Loop: "MAIN/L10", Pass: "verdict", Final: true})
	o.Decision(Decision{Label: "p", Loop: "MAIN/L20", Pass: "verdict", Final: true})
	taken := o.TakeDecisions()
	if len(taken) != 2 || len(o.Decisions()) != 0 || o.TakeDecisions() != nil {
		t.Fatalf("took %d records, observer keeps %d", len(taken), len(o.Decisions()))
	}
	var none *Observer
	if none.TakeDecisions() != nil {
		t.Error("a nil observer yields records")
	}
	if got := ExplainAll(FinalDecisions(taken, "p")); len(got) != 2 {
		t.Errorf("explanations over a bare list: %q", got)
	}
}
