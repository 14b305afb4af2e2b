// Package fabric is the peer tier of polaris-serve: N nodes
// consistent-hash route on the compile cache's content-hash key, and a
// node that misses asks the key's owner over HTTP for the finished
// compilation before compiling locally (peer cache-fill).
//
// The wire format moves a compiled entry between nodes without moving
// Go objects: the owner renders the restructured program back to its
// canonical Fortran form and ships it with the per-loop verdicts,
// ParInfo clauses, decision provenance, and pass report. The receiver
// re-parses the rendering, re-stamps loop IDs with the same pre-order
// rule the compiler uses, re-attaches the ParInfo annotations, and then
// *proves* the reconstruction faithful by rendering it again: the
// second rendering must be byte-identical to the first (the directives
// are a pure function of the re-attached annotations). Any mismatch —
// corruption, version skew, a construct that does not round-trip —
// rejects the fill, and the caller degrades to a local compile. The
// whole payload additionally carries an end-to-end SHA-256 checksum so
// a truncated or bit-flipped body is rejected before parsing.
//
// Failure is always graceful by design: a dead, hung, or lying owner
// costs the requester one local compilation, never a wrong answer —
// the distributed analog of the canceled-singleflight-leader bug class
// fixed in the local cache.
package fabric

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"polaris/internal/core"
	"polaris/internal/digest"
	"polaris/internal/ir"
	"polaris/internal/obsv"
	"polaris/internal/parser"
	"polaris/internal/passes"
)

// EntrySchema versions the wire entry. A receiver rejects any other
// value: version skew degrades to a local compile, never to a
// misdecoded entry.
const EntrySchema = 2

// entryMagic opens every entry. Its NUL can begin neither a JSON
// document (what an owner of schema 1 sends) nor Fortran text.
const entryMagic = "\x00pfe"

// Caps on the two lists of an entry whose Go form costs far more than
// its encoding (a map per event, a map slot per key): the pipeline runs
// about a dozen passes, each counting a handful of kinds of mutation.
const (
	maxReportEvents = 64
	maxMutationKeys = 64
)

// The entry is one buffer of uvarints (encoding/binary), strings and
// table indices, laid out as DESIGN.md §13 "Entry layout" tabulates:
//
//	magic · schema · route key · string table · body length · body · rendering
//
// A string is its uvarint length and its bytes. The table holds every
// string the body names, each once, in order of first use; the body
// names them by index. The body is the result scalars, the loops with
// their ParInfo clauses, the decisions (no label) and the pass report.
// The rendering runs to the end of the entry, so the owner renders
// straight into the entry's buffer without knowing its length first.

// EncodeEntry serializes a compiled result and its captured decision
// provenance for one peer fill. The returned checksum is the SHA-256
// of the entry bytes; receivers verify it end-to-end before decoding.
// res and decisions are only read — they are typically a cache entry's
// own, shared with every request that hits it — and no decision's
// label is written: the receiver decodes under its own.
func EncodeEntry(routeKey string, res *core.Result, decisions []obsv.Decision) (entry, checksum string, err error) {
	var events []passes.Event
	var totalNS int64
	if res.Report != nil {
		events, totalNS = res.Report.Events, res.Report.TotalNS
	}
	if len(events) > maxReportEvents {
		return "", "", fmt.Errorf("fabric: a report of %d events is over the wire's %d", len(events), maxReportEvents)
	}
	for _, ev := range events {
		if len(ev.Mutations) > maxMutationKeys {
			return "", "", fmt.Errorf("fabric: pass %s counts %d kinds of mutation, over the wire's %d", ev.Pass, len(ev.Mutations), maxMutationKeys)
		}
	}
	// The body goes first, into the encoder's own buffer, interning each
	// string it names as it goes: then the table that precedes it in the
	// entry is complete, and the entry's one buffer can be sized once.
	e := encoders.Get().(*encoder)
	defer e.release()
	e.body(res, decisions, events, totalNS)
	size := len(entryMagic) + uvarintLen(EntrySchema) + stringLen(routeKey) +
		uvarintLen(uint64(len(e.table))) + e.tableBytes + uvarintLen(uint64(len(e.buf))) + len(e.buf)
	// The rendering runs up to a half over the source it was parsed
	// from (codegen.EmitFortran sizes its buffer the same way); where
	// that falls short the builder grows.
	for _, u := range res.Program.Units {
		size += len(u.Source) + len(u.Source)/2
	}
	e.b.Grow(size)
	e.b.WriteString(entryMagic)
	e.put(EntrySchema)
	e.raw(routeKey)
	e.put(uint64(len(e.table)))
	for _, s := range e.table {
		e.raw(s)
	}
	e.put(uint64(len(e.buf)))
	e.b.Write(e.buf)
	res.Program.WriteFortran(&e.b)
	entry = e.b.String()
	return entry, sumHexString(entry), nil
}

// encoder writes an entry: the body into buf while it interns the
// strings the body names, then the entry into b.
type encoder struct {
	b          strings.Builder
	buf        []byte
	index      map[string]uint64
	table      []string
	tableBytes int
	keys       []string // scratch for map keys in sorted order
	scratch    [binary.MaxVarintLen64]byte
}

// encoders keeps an encoder's map and slices between fills. Built
// afresh for each fill, growing them took the owner's side of a TRFD
// fill from 19.8 to 33.1 KB (TestFillAllocBudget).
var encoders = sync.Pool{New: func() any { return &encoder{index: map[string]uint64{}} }}

// release returns e to the pool holding no string of the entry it
// encoded; the entry keeps the builder's buffer.
func (e *encoder) release() {
	clear(e.index)
	clear(e.table)
	clear(e.keys)
	*e = encoder{buf: e.buf[:0], index: e.index, table: e.table[:0], keys: e.keys[:0]}
	encoders.Put(e)
}

// put writes a uvarint to the entry.
func (e *encoder) put(v uint64) { e.b.Write(binary.AppendUvarint(e.scratch[:0], v)) }

// raw writes a string to the entry: its length, then its bytes.
func (e *encoder) raw(s string) {
	e.put(uint64(len(s)))
	e.b.WriteString(s)
}

// uint writes a uvarint to the body.
func (e *encoder) uint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// int writes v zigzagged, as binary.AppendVarint does.
func (e *encoder) int(v int64) { e.uint(uint64(v<<1) ^ uint64(v>>63)) }

func (e *encoder) bool(v bool) {
	if v {
		e.uint(1)
	} else {
		e.uint(0)
	}
}

// str writes a string as its table index, interning it on first use.
func (e *encoder) str(s string) {
	i, ok := e.index[s]
	if !ok {
		i = uint64(len(e.table))
		e.index[s] = i
		e.table = append(e.table, s)
		e.tableBytes += stringLen(s)
	}
	e.uint(i)
}

func (e *encoder) list(ss []string) {
	e.uint(uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

// sorted returns m's keys in order, in the encoder's scratch slice: the
// entry's bytes may not depend on map iteration order.
func sorted[V any](e *encoder, m map[string]V) []string {
	e.keys = e.keys[:0]
	for k := range m {
		e.keys = append(e.keys, k)
	}
	slices.Sort(e.keys)
	return e.keys
}

func (e *encoder) body(res *core.Result, decisions []obsv.Decision, events []passes.Event, totalNS int64) {
	e.int(int64(res.InlinedCalls))
	e.int(int64(res.StrengthReduced))
	e.int(int64(res.NormalizedLoops))
	e.list(res.InductionVars)
	e.uint(uint64(len(res.InlineSkipped)))
	for _, k := range sorted(e, res.InlineSkipped) {
		e.str(k)
		e.str(res.InlineSkipped[k])
	}
	e.uint(uint64(len(res.InterprocConstants)))
	for _, k := range sorted(e, res.InterprocConstants) {
		e.str(k)
		e.int(res.InterprocConstants[k])
	}

	e.uint(uint64(len(res.Loops)))
	for _, l := range res.Loops {
		e.str(l.ID)
		e.str(l.Unit)
		e.str(l.Index)
		e.int(int64(l.Depth))
		e.bool(l.Parallel)
		e.list(l.LRPD)
		e.str(l.Reason)
		var p *ir.ParInfo
		if l.Loop != nil {
			p = l.Loop.Par
		}
		e.bool(p != nil)
		if p == nil {
			continue
		}
		e.bool(p.Parallel)
		e.str(p.Reason)
		e.list(p.Private)
		e.list(p.PrivateArrays)
		e.list(p.LastValue)
		e.uint(uint64(len(p.Reductions)))
		for _, r := range p.Reductions {
			e.str(r.Target)
			e.str(r.Op)
			e.bool(r.Histogram)
		}
		e.list(p.LRPD)
	}

	e.uint(uint64(len(decisions)))
	for i := range decisions {
		d := &decisions[i]
		e.str(d.Unit)
		e.str(d.Loop)
		e.str(d.Index)
		e.int(int64(d.Depth))
		e.str(d.Pass)
		e.str(d.Verdict)
		e.str(d.Technique)
		e.str(d.Blocker)
		e.str(d.Detail)
		e.list(d.Evidence)
		e.bool(d.Final)
	}

	e.int(totalNS)
	e.uint(uint64(len(events)))
	for _, ev := range events {
		e.int(int64(ev.Seq))
		e.str(ev.Pass)
		e.int(ev.DurationNS)
		e.uint(uint64(len(ev.Mutations)))
		for _, k := range sorted(e, ev.Mutations) {
			e.str(k)
			e.int(ev.Mutations[k])
		}
		e.str(ev.Err)
	}
}

// DecodeEntry reconstructs a compiled result from wire bytes, its
// decisions recorded under label. wantKey is the route key the receiver
// asked for; any disagreement — checksum, schema, key, a count or index
// the bytes cannot hold, parse failure, loop mismatch, or a
// reconstruction that fails the render-roundtrip proof — returns an
// error and the caller falls back to a local compile.
//
// What the wire's own decoding allocates is bounded by the bytes
// present: every string is a substring of one conversion of entry, and
// every slice and map of the body is made at its decoded length only
// once the bytes left could hold that many elements at their smallest
// encoding.
func DecodeEntry(entry []byte, checksum, wantKey, label string) (*core.Result, []obsv.Decision, error) {
	if got := sumHex(entry); got != checksum {
		return nil, nil, fmt.Errorf("fabric: entry checksum mismatch (got %.12s want %.12s)", got, checksum)
	}
	if !bytes.HasPrefix(entry, []byte(entryMagic)) {
		return nil, nil, fmt.Errorf("fabric: not a schema-%d entry (no entry header)", EntrySchema)
	}
	r := &reader{b: entry, s: string(entry), p: len(entryMagic), end: len(entry)}
	if v := r.uint(); r.err == nil && v != EntrySchema {
		return nil, nil, fmt.Errorf("fabric: entry schema %d, want %d", v, EntrySchema)
	}
	if key := r.raw(); r.err == nil && key != wantKey {
		return nil, nil, fmt.Errorf("fabric: stale entry: route key %.20s..., want %.20s...", key, wantKey)
	}
	if n := r.count(1); n > 0 {
		r.table = make([]string, n)
		for i := range r.table {
			r.table[i] = r.raw()
		}
	}
	bodyLen := r.uint()
	if r.err == nil && bodyLen > uint64(len(entry)-r.p) {
		r.failf("a body of %d bytes with %d left", bodyLen, len(entry)-r.p)
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	r.end = r.p + int(bodyLen)
	rendered := r.s[r.end:]

	prog, err := parser.ParseProgram(rendered)
	if err != nil {
		return nil, nil, fmt.Errorf("fabric: reparse rendered program: %w", err)
	}
	// Re-stamp loop identities with the compiler's own pre-order rule,
	// then re-attach the verdict annotations by (unit, ID).
	loopByID := map[loopKey]*ir.DoStmt{}
	for _, u := range prog.Units {
		core.AssignLoopIDs(u)
		for _, d := range ir.Loops(u.Body) {
			loopByID[loopKey{u.Name, d.ID}] = d
		}
	}
	res := &core.Result{Program: prog, Unit: prog.Main()}
	if res.Unit == nil {
		return nil, nil, fmt.Errorf("fabric: rendered program has no main unit")
	}
	decisions := r.body(res, loopByID, label)
	if r.err != nil {
		return nil, nil, r.err
	}
	if r.p != r.end {
		return nil, nil, fmt.Errorf("fabric: %d bytes left over in the entry body", r.end-r.p)
	}
	// The fidelity proof: rendering the reconstruction (annotations
	// re-attached, so the directives reappear) must reproduce the
	// owner's rendering byte for byte. A program that does not
	// round-trip is rejected rather than trusted. The rendering is
	// covered by the entry's checksum, so comparing the bytes says at
	// least what hashing the second rendering would, and a faithful one
	// is exactly as long, so the builder never grows.
	var again strings.Builder
	again.Grow(len(rendered))
	prog.WriteFortran(&again)
	if again.String() != rendered {
		return nil, nil, fmt.Errorf("fabric: reconstruction failed the render-roundtrip check")
	}
	return res, decisions, nil
}

type loopKey struct{ unit, id string }

// reader decodes an entry. Its first error sticks: every later read
// returns a zero value and every count is 0, so a failed decode
// allocates nothing more.
type reader struct {
	b     []byte
	s     string // string(b): every decoded string is a substring of it
	p     int
	end   int // the end of the section being read
	table []string
	err   error
}

func (r *reader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("fabric: entry decode at byte %d: "+format, append([]any{r.p}, args...)...)
	}
}

func (r *reader) uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.p:r.end])
	if n <= 0 {
		r.failf("truncated or overlong uvarint")
		return 0
	}
	r.p += n
	return v
}

// int reads a zigzagged varint, as binary.Varint does.
func (r *reader) int() int64 {
	u := r.uint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *reader) bool() bool { return r.uint() != 0 }

// count reads a length and checks that the bytes left could hold that
// many elements of at least min bytes each.
func (r *reader) count(min int) int {
	n := r.uint()
	if left := uint64((r.end - r.p) / min); n > left {
		r.failf("a count of %d where the bytes left hold at most %d", n, left)
		return 0
	}
	return int(n)
}

// capped is count with a fixed ceiling as well.
func (r *reader) capped(min, max int) int {
	n := r.count(min)
	if n > max {
		r.failf("a count of %d over the cap of %d", n, max)
		return 0
	}
	return n
}

// raw reads an inline string.
func (r *reader) raw() string {
	n := r.count(1)
	s := r.s[r.p : r.p+n]
	r.p += n
	return s
}

// str reads a table index.
func (r *reader) str() string {
	i := r.uint()
	if i >= uint64(len(r.table)) {
		if r.err == nil {
			r.failf("string index %d in a table of %d", i, len(r.table))
		}
		return ""
	}
	return r.table[i]
}

// list reads a list of table indices; empty is nil, as the encoder
// cannot tell them apart.
func (r *reader) list() []string {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	return out
}

// The smallest encodings of the body's repeated elements: one byte per
// uvarint, index and boolean, and an empty list's count.
const (
	minLoop      = 8 // ID, unit, index, depth, parallel, LRPD count, reason, has-clauses
	minReduction = 3
	minDecision  = 11
	minEvent     = 5
	minPair      = 2 // a map entry: key index and value
)

// body decodes the entry body into res, attaching each loop's clauses
// to the loop of the re-parsed program it names, and returns the
// decisions under label.
func (r *reader) body(res *core.Result, loopByID map[loopKey]*ir.DoStmt, label string) []obsv.Decision {
	res.InlinedCalls = int(r.int())
	res.StrengthReduced = int(r.int())
	res.NormalizedLoops = int(r.int())
	res.InductionVars = r.list()
	n := r.count(minPair)
	res.InlineSkipped = make(map[string]string, n)
	for ; n > 0; n-- {
		k := r.str()
		res.InlineSkipped[k] = r.str()
	}
	if n := r.count(minPair); n > 0 {
		res.InterprocConstants = make(map[string]int64, n)
		for ; n > 0; n-- {
			k := r.str()
			res.InterprocConstants[k] = r.int()
		}
	}

	if n := r.count(minLoop); n > 0 {
		res.Loops = make([]core.LoopReport, n)
	}
	for i := range res.Loops {
		l := &res.Loops[i]
		l.ID, l.Unit, l.Index = r.str(), r.str(), r.str()
		l.Depth = int(r.int())
		l.Parallel = r.bool()
		l.LRPD = r.list()
		l.Reason = r.str()
		var p *ir.ParInfo
		if r.bool() {
			p = &ir.ParInfo{Parallel: r.bool(), Reason: r.str()}
			p.Private, p.PrivateArrays, p.LastValue = r.list(), r.list(), r.list()
			if n := r.count(minReduction); n > 0 {
				p.Reductions = make([]ir.Reduction, n)
				for j := range p.Reductions {
					p.Reductions[j] = ir.Reduction{Target: r.str(), Op: r.str(), Histogram: r.bool()}
				}
			}
			p.LRPD = r.list()
		}
		if r.err != nil {
			return nil
		}
		d := loopByID[loopKey{l.Unit, l.ID}]
		if d == nil {
			r.failf("the entry names loop %s/%s absent from the rendered program", l.Unit, l.ID)
			return nil
		}
		d.Par = p // decoded for this entry alone: nobody else holds it
		l.Loop = d
	}

	var decisions []obsv.Decision
	if n := r.count(minDecision); n > 0 {
		decisions = make([]obsv.Decision, n)
	}
	for i := range decisions {
		decisions[i] = obsv.Decision{
			Label: label, Unit: r.str(), Loop: r.str(), Index: r.str(), Depth: int(r.int()),
			Pass: r.str(), Verdict: r.str(), Technique: r.str(), Blocker: r.str(), Detail: r.str(),
			Evidence: r.list(), Final: r.bool(),
		}
	}

	totalNS := r.int()
	if n := r.capped(minEvent, maxReportEvents); n > 0 {
		events := make([]passes.Event, n)
		for i := range events {
			ev := &events[i]
			ev.Seq, ev.Pass, ev.DurationNS = int(r.int()), r.str(), r.int()
			if m := r.capped(minPair, maxMutationKeys); m > 0 {
				ev.Mutations = make(map[string]int64, m)
				for ; m > 0; m-- {
					k := r.str()
					ev.Mutations[k] = r.int()
				}
			}
			ev.Err = r.str()
		}
		res.Report = &passes.PipelineReport{Events: events, TotalNS: totalNS}
	}
	return decisions
}

// uvarintLen is len(binary.AppendUvarint(nil, v)).
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// stringLen is the encoded length of an inline string.
func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

func sumHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// sumHexString is sumHex of a string, streamed to the digest instead of
// converted: converting would copy a whole entry to the heap to hash it.
func sumHexString(s string) string {
	sum := digest.Sum256(s)
	return hex.EncodeToString(sum[:])
}
