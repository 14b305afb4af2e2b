// Package fabric is the peer tier of polaris-serve: N nodes
// consistent-hash route on the compile cache's content-hash key, and a
// node that misses asks the key's owner over HTTP for the finished
// compilation before compiling locally (peer cache-fill).
//
// The wire format moves a compiled entry between nodes without moving
// Go objects: the owner renders the restructured program back to its
// canonical Fortran form and ships it with the per-loop verdicts,
// ParInfo clauses, decision provenance and pass report, under an
// end-to-end SHA-256 checksum. The receiver re-parses the rendering,
// re-stamps loop IDs with the compiler's own pre-order rule, re-attaches
// the ParInfo annotations, and *proves* the reconstruction faithful: its
// rendering must be byte-identical to the one shipped. Any mismatch —
// corruption, version skew, a construct that does not round-trip —
// rejects the fill, and the caller degrades to a local compile.
//
// The same entry is what a node's compile cache holds. Its readers:
//
//	reader       called by                checks                        allocates
//	DecodeView   compile or explain hit   every count and index         a pooled View
//	VerifyEntry  peer fill                all, render proof included    the parse and render; pooled scratch
//	DecodeEntry  /v1/emit                 all, render proof included    the Result it returns
//
// Failure is always graceful by design: a dead, hung, or lying owner
// costs the requester one local compilation, never a wrong answer —
// the distributed analog of the canceled-singleflight-leader bug class
// fixed in the local cache.
package fabric

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
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
// The rendering runs to the end of the entry, so it carries no length.
// The table and the body are written and read with the decision codec
// of internal/obsv, whose decision section the unit memo keeps too.

// EncodeEntry serializes a compiled result and its captured decision
// provenance: the entry a compile cache keeps and a peer fill ships.
// The returned checksum is the SHA-256 of the entry bytes; receivers
// verify it end-to-end before decoding. res and decisions are only read,
// and no decision's label is written: a reader decodes under its own.
// The entry is one allocation of exactly its length, so a cache books
// what it holds.
func EncodeEntry(routeKey string, res *core.Result, decisions []obsv.Decision) (entry, checksum string, err error) {
	var events []obsv.Span
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
	// string it names as it goes, and the rendering into a builder of its
	// own: then every part of the entry has its length, and the entry's
	// one buffer is sized exactly.
	e := encoders.Get().(*encoder)
	defer e.release()
	if err := e.loopStmts(res); err != nil {
		return "", "", err
	}
	e.body(res, decisions, events, totalNS)
	// The rendering runs up to a half over the source it was parsed
	// from (codegen.EmitFortran sizes its buffer the same way); where
	// that falls short the builder grows.
	est := 0
	for _, u := range res.Program.Units {
		est += u.SourceLen() + u.SourceLen()/2
	}
	var r strings.Builder
	r.Grow(est)
	res.Program.WriteFortran(&r)
	rendered := r.String()
	e.b.Grow(len(entryMagic) + obsv.UvarintLen(EntrySchema) + obsv.StringLen(routeKey) +
		obsv.UvarintLen(uint64(len(e.Table))) + e.TableBytes + obsv.UvarintLen(uint64(len(e.Buf))) + len(e.Buf) + len(rendered))
	e.b.WriteString(entryMagic)
	e.put(EntrySchema)
	e.raw(routeKey)
	e.put(uint64(len(e.Table)))
	for _, s := range e.Table {
		e.raw(s)
	}
	e.put(uint64(len(e.Buf)))
	e.b.Write(e.Buf)
	e.b.WriteString(rendered)
	entry = e.b.String()
	return entry, sumHex(entry), nil
}

// encoder writes an entry: the body into the decision codec's encoder
// (obsv.Encoder), which interns the strings the body names, then the
// entry into b.
type encoder struct {
	obsv.Encoder
	b       strings.Builder
	keys    []string     // scratch for map keys in sorted order
	loops   []*ir.DoStmt // the DO statement of each loop record
	scratch [binary.MaxVarintLen64]byte
}

// encoders keeps an encoder's map and slices between fills. Built
// afresh for each fill, growing them took the owner's side of a TRFD
// fill from 19.8 to 33.1 KB (TestFillAllocBudget).
var encoders = sync.Pool{New: func() any { return new(encoder) }}

// release returns e to the pool holding no string of the entry it
// encoded; the entry keeps the builder's buffer.
func (e *encoder) release() {
	e.Reset()
	clear(e.keys)
	clear(e.loops)
	*e = encoder{Encoder: e.Encoder, keys: e.keys[:0], loops: e.loops[:0]}
	encoders.Put(e)
}

// loopStmts fills e.loops with the DO statement each of res.Loops names
// by (Unit, ID), index for index, whose clauses the body carries. The
// records are in program order, so one walk of the program's loops
// pairs them up.
func (e *encoder) loopStmts(res *core.Result) error {
	for _, u := range res.Program.Units {
		from := len(e.loops)
		ir.WalkStmts(u.Body, func(s ir.Stmt) bool {
			if d, ok := s.(*ir.DoStmt); ok {
				e.loops = append(e.loops, d)
			}
			return true
		})
		for k := from; k < len(e.loops); k++ {
			if k >= len(res.Loops) || res.Loops[k].Unit != u.Name || res.Loops[k].ID != e.loops[k].ID {
				return fmt.Errorf("fabric: loop %s/%s has no record in program order", u.Name, e.loops[k].ID)
			}
		}
	}
	if len(e.loops) != len(res.Loops) {
		return fmt.Errorf("fabric: %d loop records for %d loops", len(res.Loops), len(e.loops))
	}
	return nil
}

// put writes a uvarint to the entry.
func (e *encoder) put(v uint64) { e.b.Write(binary.AppendUvarint(e.scratch[:0], v)) }

// raw writes a string to the entry: its length, then its bytes.
func (e *encoder) raw(s string) {
	e.put(uint64(len(s)))
	e.b.WriteString(s)
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

func (e *encoder) body(res *core.Result, decisions []obsv.Decision, events []obsv.Span, totalNS int64) {
	e.Int(int64(res.InlinedCalls))
	e.Int(int64(res.StrengthReduced))
	e.Int(int64(res.NormalizedLoops))
	e.List(res.InductionVars)
	e.Uint(uint64(len(res.InlineSkipped)))
	for _, k := range sorted(e, res.InlineSkipped) {
		e.Str(k)
		e.Str(res.InlineSkipped[k])
	}
	e.Uint(uint64(len(res.InterprocConstants)))
	for _, k := range sorted(e, res.InterprocConstants) {
		e.Str(k)
		e.Int(res.InterprocConstants[k])
	}

	e.Uint(uint64(len(res.Loops)))
	for k, l := range res.Loops {
		e.Str(l.ID)
		e.Str(l.Unit)
		e.Str(l.Index)
		e.Int(int64(l.Depth))
		e.Bool(l.Parallel)
		e.List(l.RunTimeTest)
		e.Str(l.Reason)
		p := e.loops[k].Par
		e.Bool(p != nil)
		if p == nil {
			continue
		}
		e.Bool(p.Parallel)
		e.Str(p.Reason)
		e.List(p.Private)
		e.List(p.PrivateArrays)
		e.List(p.LastValue)
		e.Uint(uint64(len(p.Reductions)))
		for _, r := range p.Reductions {
			e.Str(r.Target)
			e.Str(r.Op)
			e.Bool(r.Histogram)
		}
		e.List(p.LRPD)
	}

	e.Decisions(decisions)

	e.Int(totalNS)
	e.Uint(uint64(len(events)))
	for _, ev := range events {
		e.Int(int64(ev.Seq))
		e.Str(ev.Pass)
		e.Int(ev.DurationNS)
		e.Uint(uint64(len(ev.Mutations)))
		for _, k := range sorted(e, ev.Mutations) {
			e.Str(k)
			e.Int(ev.Mutations[k])
		}
		e.Str(ev.Err)
	}
}

// DecodeEntry reconstructs a compiled result from an entry, its decisions
// recorded under label. wantKey is the route key the caller asked for; any
// disagreement — checksum, schema, key, a count or index the bytes cannot
// hold, parse failure, loop mismatch, or a reconstruction that fails the
// render-roundtrip proof — returns an error, and the caller compiles locally
// instead.
//
// What the wire's own decoding allocates is bounded by the bytes
// present: every string is a substring of the entry, and every slice and
// map of the body is made at its decoded length only once the bytes left
// could hold that many elements at their smallest encoding.
func DecodeEntry(entry, checksum, wantKey, label string) (*core.Result, []obsv.Decision, error) {
	var v View
	res, err := decode(&v, entry, checksum, wantKey, label)
	if err != nil {
		return nil, nil, err
	}
	res.Loops = v.Loops
	if len(v.Report.Events) > 0 {
		res.Report = &passes.PipelineReport{Events: v.Report.Events, TotalNS: v.Report.TotalNS}
	}
	return res, v.Decisions, nil
}

// VerifyEntry runs every check DecodeEntry runs and keeps nothing: the
// body goes into a pooled View, released once the rendering is compared.
func VerifyEntry(entry, checksum, wantKey string) error {
	v := views.Get().(*View)
	defer v.Release()
	_, err := decode(v, entry, checksum, wantKey, "")
	return err
}

// decode proves entry and reads its body into v. A pooled View lends
// scratch the parsed program points into until Release, and the result's
// maps are dropped; a fresh View's loops, decisions and report are kept.
func decode(v *View, entry, checksum, wantKey, label string) (*core.Result, error) {
	if got := sumHex(entry); got != checksum {
		return nil, fmt.Errorf("fabric: entry checksum mismatch (got %.12s want %.12s)", got, checksum)
	}
	r := newReader(entry, v)
	if key := r.header(); r.Err == nil && key != wantKey {
		return nil, fmt.Errorf("fabric: stale entry: route key %.20s..., want %.20s...", key, wantKey)
	}
	r.readTable(v)
	if r.Err != nil {
		return nil, r.err()
	}
	rendered := r.S[r.End:]
	prog, err := parser.ParseProgram(rendered)
	if err != nil {
		return nil, fmt.Errorf("fabric: reparse rendered program: %w", err)
	}
	// Re-stamp loop identities with the compiler's own pre-order rule.
	if v.byID == nil {
		v.byID = map[loopKey]*ir.DoStmt{}
	}
	for _, u := range prog.Units {
		core.AssignLoopIDs(u)
		for _, d := range ir.Loops(u.Body) {
			v.byID[loopKey{u.Name, d.ID}] = d
		}
	}
	res := &core.Result{Program: prog, Unit: prog.Main()}
	if res.Unit == nil {
		return nil, fmt.Errorf("fabric: rendered program has no main unit")
	}
	if r.body(v, res, label); r.Err != nil {
		return nil, r.err()
	}
	// The fidelity proof: the reconstruction, annotations re-attached so
	// the directives reappear, must render to the owner's rendering byte
	// for byte. The checksum covers the rendering, so comparing says at
	// least what hashing the second rendering would; a faithful one is
	// exactly as long, so the builder never grows.
	var again strings.Builder
	again.Grow(len(rendered))
	prog.WriteFortran(&again)
	if again.String() != rendered {
		return nil, fmt.Errorf("fabric: reconstruction failed the render-roundtrip check")
	}
	return res, nil
}

// View is what a compile or explain response reads of an entry: the
// loops' verdicts, the decisions under the request's label, and the
// pass report. Every string is a substring
// of the entry, and every slice and map is scratch the View keeps from
// one decode to the next. Release hands it back; nothing it holds may be
// read after.
type View struct {
	Loops     []core.LoopReport
	Decisions []obsv.Decision
	Report    passes.PipelineReport
	table     []string
	lists     []string               // the backing of every list the View holds
	pars      []ir.ParInfo           // a decode's clauses
	byID      map[loopKey]*ir.DoStmt // its parsed program's loops
	pooled    bool                   // from views: its scratch outlives the read
}

var views = sync.Pool{New: func() any { return &View{pooled: true} }}

// DecodeView reads entry's body into a View under label, for an entry
// this process encoded or verified itself: it skips the checksum, the
// route key, the parse of the rendering and the fidelity proof, which
// only a full decode needs. Every count and index is still checked
// against the bytes, so a broken entry is an error, never a panic, and
// what a View allocates is bounded as DecodeEntry's is.
func DecodeView(entry, label string) (*View, error) {
	v := views.Get().(*View)
	r := newReader(entry, v)
	r.header()
	r.readTable(v)
	r.body(v, nil, label)
	if err := r.err(); err != nil {
		v.Release()
		return nil, err
	}
	return v, nil
}

// Release clears every string the View holds, so a pooled View pins no
// entry, and returns it to the pool. The report's mutation maps stay,
// emptied, for the next View to fill.
func (v *View) Release() {
	clear(v.Loops)
	clear(v.Decisions)
	for i := range v.Report.Events {
		m := v.Report.Events[i].Mutations
		clear(m)
		v.Report.Events[i] = obsv.Span{Mutations: m}
	}
	clear(v.table)
	clear(v.lists)
	clear(v.pars)
	clear(v.byID)
	*v = View{Loops: v.Loops[:0], Decisions: v.Decisions[:0], Report: passes.PipelineReport{Events: v.Report.Events[:0]},
		table: v.table[:0], lists: v.lists[:0], pars: v.pars[:0], byID: v.byID, pooled: true}
	views.Put(v)
}

type loopKey struct{ unit, id string }

// reader decodes an entry with the decision codec's reader, whose first
// error sticks: every later read returns a zero value and every count
// is 0, so a failed decode allocates nothing more.
type reader struct{ obsv.Reader }

// newReader reads entry into v: a pooled View's lists share one backing
// array, where a full decode makes each its own.
func newReader(entry string, v *View) reader {
	r := reader{obsv.Reader{S: entry, End: len(entry)}}
	if v.pooled {
		r.Shared = &v.lists
	}
	return r
}

// err returns the decode's first error, named as the fabric's.
func (r *reader) err() error {
	if r.Err == nil {
		return nil
	}
	return fmt.Errorf("fabric: entry %w", r.Err)
}

// header reads an entry up to its string table — the magic, the schema
// and the route key, which it returns.
func (r *reader) header() string {
	if !strings.HasPrefix(r.S, entryMagic) {
		r.Failf("not a schema-%d entry (no entry header)", EntrySchema)
		return ""
	}
	r.P = len(entryMagic)
	if v := r.Uint(); r.Err == nil && v != EntrySchema {
		r.Failf("entry schema %d, want %d", v, EntrySchema)
		return ""
	}
	return r.Raw()
}

// readTable reads the string table into v's and the body's length, and
// leaves r at the body with r.End at its end: the rendering starts there.
func (r *reader) readTable(v *View) {
	v.table = r.ReadTable(v.table)
	bodyLen := r.Uint()
	if r.Err == nil && bodyLen > uint64(r.End-r.P) {
		r.Failf("a body of %d bytes with %d left", bodyLen, r.End-r.P)
	}
	if r.Err == nil {
		r.End = r.P + int(bodyLen)
	}
}

// The smallest encodings of the body's repeated elements: one byte per
// uvarint, index and boolean, and an empty list's count.
const (
	minLoop      = 8 // ID, unit, index, depth, parallel, LRPD count, reason, has-clauses
	minReduction = 3
	minEvent     = 5
	minPair      = 2 // a map entry: key index and value
)

// body decodes the entry body into v: the loops, the decisions under
// label and the report. A decode passes res: res takes the result's own
// fields (its maps only from a fresh View), and each loop's clauses go on
// the loop of the re-parsed program it names. A view passes none, and
// the bytes of both are read and checked, then dropped.
func (r *reader) body(v *View, res *core.Result, label string) {
	full := res != nil && !v.pooled
	inlined, reduced, normalized := r.Int(), r.Int(), r.Int()
	inductionVars := r.List()
	if res != nil {
		res.InlinedCalls, res.StrengthReduced, res.NormalizedLoops = int(inlined), int(reduced), int(normalized)
		res.InductionVars = inductionVars
	}
	n := r.Count(minPair)
	if full {
		res.InlineSkipped = make(map[string]string, n)
	}
	for ; n > 0; n-- {
		if k, callee := r.Str(), r.Str(); full {
			res.InlineSkipped[k] = callee
		}
	}
	if n = r.Count(minPair); n > 0 && full {
		res.InterprocConstants = make(map[string]int64, n)
	}
	for ; n > 0; n-- {
		if k, c := r.Str(), r.Int(); full {
			res.InterprocConstants[k] = c
		}
	}

	v.Loops = obsv.Resize(v.Loops, r.Count(minLoop))
	if res != nil {
		v.pars = obsv.Resize(v.pars, len(v.Loops))[:0] // holds every loop's clauses: &v.pars[i] stays put
	}
	for i := range v.Loops {
		l := &v.Loops[i]
		*l = core.LoopReport{ID: r.Str(), Unit: r.Str(), Index: r.Str(), Depth: int(r.Int()), Parallel: r.Bool()}
		l.RunTimeTest, l.Reason = r.List(), r.Str()
		var p ir.ParInfo
		clauses := r.Bool()
		if clauses {
			p = ir.ParInfo{Parallel: r.Bool(), Reason: r.Str()}
			p.Private, p.PrivateArrays, p.LastValue = r.List(), r.List(), r.List()
			n := r.Count(minReduction)
			if res != nil && n > 0 {
				p.Reductions = make([]ir.Reduction, n)
			}
			for j := 0; j < n; j++ {
				if red := (ir.Reduction{Target: r.Str(), Op: r.Str(), Histogram: r.Bool()}); res != nil {
					p.Reductions[j] = red
				}
			}
			p.LRPD = r.List()
		}
		if r.Err != nil || res == nil {
			continue
		}
		d := v.byID[loopKey{l.Unit, l.ID}]
		if d == nil {
			r.Failf("the entry names loop %s/%s absent from the rendered program", l.Unit, l.ID)
			return
		}
		if clauses {
			v.pars = append(v.pars, p)
			d.Par = &v.pars[len(v.pars)-1]
		}
	}

	v.Decisions = obsv.Resize(v.Decisions, r.DecisionCount())
	r.ReadDecisions(v.Decisions, label)

	v.Report.TotalNS = r.Int()
	v.Report.Events = obsv.Resize(v.Report.Events, r.Capped(minEvent, maxReportEvents))
	for i := range v.Report.Events {
		ev := &v.Report.Events[i]
		m := ev.Mutations // a View's, emptied by Release; nil in a full decode
		*ev = obsv.Span{Seq: int(r.Int()), Pass: r.Str(), DurationNS: r.Int()}
		n := r.Capped(minPair, maxMutationKeys)
		if m == nil && n > 0 {
			m = make(map[string]int64, n)
		}
		for ; n > 0; n-- {
			k := r.Str()
			m[k] = r.Int()
		}
		ev.Mutations, ev.Err = m, r.Str()
	}
	if r.P != r.End {
		r.Failf("%d bytes left over in the entry body", r.End-r.P)
	}
}

// sumHex is the hex SHA-256 of an entry, streamed to the digest where it
// stands: converting it to bytes would copy it to the heap to hash it.
func sumHex(s string) string {
	sum := digest.Sum256(s)
	return hex.EncodeToString(sum[:])
}
