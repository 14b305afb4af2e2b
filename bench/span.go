package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Times are
// nanoseconds since the measured phase began. Parent is the ID of the
// span that caused this one (0 for an operation's root span); every
// span of one operation carries that operation's index in Op.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// opSpans collects the spans of one operation. Each client goroutine
// owns the recorder of the operation it is running, so recording takes
// no lock; the workload merges recorders when the phase ends.
type opSpans struct {
	op    int
	epoch time.Time
	spans []span
}

// maxSpansPerOp bounds the per-operation span ordinal packed into a
// span ID beside the operation index.
const maxSpansPerOp = 1 << 12

func newOpSpans(op int, epoch time.Time) *opSpans {
	return &opSpans{op: op, epoch: epoch}
}

// add records a finished span and returns its ID, for use as the
// parent of spans it caused.
func (r *opSpans) add(name string, parent int64, start, end time.Time) int64 {
	return r.addNS(name, parent, start.Sub(r.epoch).Nanoseconds(), end.Sub(r.epoch).Nanoseconds())
}

func (r *opSpans) addNS(name string, parent, startNS, endNS int64) int64 {
	id := int64(r.op)*maxSpansPerOp + int64(len(r.spans)) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: r.op, Name: name, Start: startNS, End: endNS})
	return id
}

// openOp starts an operation: its clock, and the root span of a traced
// one (tr is nil on untraced operations).
func openOp(tr *opSpans) (start time.Time, root int64) {
	start = time.Now()
	if tr != nil {
		root = tr.add("op", 0, start, start)
	}
	return start, root
}

// closeOp stops an operation's clock and ends its root span, which
// openOp recorded first.
func closeOp(tr *opSpans, start time.Time) time.Duration {
	end := time.Now()
	if tr != nil {
		tr.spans[0].End = end.Sub(tr.epoch).Nanoseconds()
	}
	return end.Sub(start)
}

// layOut records child spans back to back from the start of the parent
// span, one per (name, duration) pair, clipped to the parent's end. It
// is how durations the program reports about itself (the pass
// manager's per-pass wall times, a separately timed lexer call) become
// child spans of the harness span that contained them.
func (r *opSpans) layOut(parent int64, names []string, durs []time.Duration) {
	p := r.spans[parent-int64(r.op)*maxSpansPerOp-1]
	at := p.Start
	for i, name := range names {
		end := at + durs[i].Nanoseconds()
		if end > p.End {
			end = p.End
		}
		r.addNS(name, parent, at, end)
		at = end
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Children may be nested
// deeper, lie back to back, or overlap; the covered part is the union
// of the direct children's intervals clipped to the parent.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, at := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, at), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerTotals sums span durations and self times by span name.
type layerTotals struct {
	busy, self map[string]int64
}

func totalsByName(spans []span) layerTotals {
	t := layerTotals{busy: map[string]int64{}, self: map[string]int64{}}
	self := selfTimes(spans)
	for _, s := range spans {
		t.busy[s.Name] += s.dur()
		t.self[s.Name] += self[s.ID]
	}
	return t
}

// checkSumOfParts verifies the decomposition the per-layer table rests
// on: every child span lies inside its parent, and every parent's
// duration equals its self time plus its children's durations within
// tol (a share of the parent's duration). It returns one line per
// violation.
func checkSumOfParts(spans []span, tol float64) []string {
	byID := make(map[int64]span, len(spans))
	kidsDur := map[int64]int64{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var bad []string
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			bad = append(bad, fmt.Sprintf("span %d (%s): parent %d missing", s.ID, s.Name, s.Parent))
			continue
		}
		if s.Start < p.Start || s.End > p.End {
			bad = append(bad, fmt.Sprintf("span %d (%s) [%d,%d] escapes parent %s [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End))
		}
		kidsDur[s.Parent] += s.dur()
	}
	self := selfTimes(spans)
	for id, kd := range kidsDur {
		p := byID[id]
		if diff := p.dur() - self[id] - kd; float64(abs64(diff)) > tol*float64(p.dur()) {
			bad = append(bad, fmt.Sprintf("span %d (%s): duration %d != self %d + children %d",
				id, p.Name, p.dur(), self[id], kd))
		}
	}
	sort.Strings(bad)
	return bad
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// writeSpans writes the spans as JSONL to dir/<workload>.spans.jsonl,
// one header line (workload, seed, GOMAXPROCS) then one span a line.
func writeSpans(dir, workload string, header map[string]any, spans []span) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.jsonl"))
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("write spans: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
