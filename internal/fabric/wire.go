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
// The rendering runs to the end of the entry, so it carries no length.

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
		est += len(u.Source) + len(u.Source)/2
	}
	var r strings.Builder
	r.Grow(est)
	res.Program.WriteFortran(&r)
	rendered := r.String()
	e.b.Grow(len(entryMagic) + uvarintLen(EntrySchema) + stringLen(routeKey) +
		uvarintLen(uint64(len(e.table))) + e.tableBytes + uvarintLen(uint64(len(e.buf))) + len(e.buf) + len(rendered))
	e.b.WriteString(entryMagic)
	e.put(EntrySchema)
	e.raw(routeKey)
	e.put(uint64(len(e.table)))
	for _, s := range e.table {
		e.raw(s)
	}
	e.put(uint64(len(e.buf)))
	e.b.Write(e.buf)
	e.b.WriteString(rendered)
	entry = e.b.String()
	return entry, sumHex(entry), nil
}

// encoder writes an entry: the body into buf while it interns the
// strings the body names, then the entry into b.
type encoder struct {
	b          strings.Builder
	buf        []byte
	index      map[string]uint64
	table      []string
	tableBytes int
	keys       []string     // scratch for map keys in sorted order
	loops      []*ir.DoStmt // the DO statement of each loop record
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
	clear(e.loops)
	*e = encoder{buf: e.buf[:0], index: e.index, table: e.table[:0], keys: e.keys[:0], loops: e.loops[:0]}
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

func (e *encoder) body(res *core.Result, decisions []obsv.Decision, events []obsv.Span, totalNS int64) {
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
	for k, l := range res.Loops {
		e.str(l.ID)
		e.str(l.Unit)
		e.str(l.Index)
		e.int(int64(l.Depth))
		e.bool(l.Parallel)
		e.list(l.RunTimeTest)
		e.str(l.Reason)
		p := e.loops[k].Par
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
	r := &reader{s: entry, view: v}
	if key := r.header(); r.err == nil && key != wantKey {
		return nil, fmt.Errorf("fabric: stale entry: route key %.20s..., want %.20s...", key, wantKey)
	}
	r.readTable(v)
	if r.err != nil {
		return nil, r.err
	}
	rendered := r.s[r.end:]
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
	if r.body(v, res, label); r.err != nil {
		return nil, r.err
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
	r := reader{s: entry, view: v}
	r.header()
	r.readTable(v)
	r.body(v, nil, label)
	if r.err != nil {
		v.Release()
		return nil, r.err
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

// reader decodes an entry. Its first error sticks: every later read
// returns a zero value and every count is 0, so a failed decode
// allocates nothing more.
type reader struct {
	s     string // every decoded string is a substring of it
	p     int
	end   int // the end of the section being read
	table []string
	err   error
	// view is the View a read fills: a pooled one's lists share one
	// backing array, where a full decode makes each its own.
	view *View
}

// header reads an entry up to its string table — the magic, the schema
// and the route key, which it returns.
func (r *reader) header() string {
	if !strings.HasPrefix(r.s, entryMagic) {
		r.err = fmt.Errorf("fabric: not a schema-%d entry (no entry header)", EntrySchema)
		return ""
	}
	r.p, r.end = len(entryMagic), len(r.s)
	if v := r.uint(); r.err == nil && v != EntrySchema {
		r.err = fmt.Errorf("fabric: entry schema %d, want %d", v, EntrySchema)
		return ""
	}
	return r.raw()
}

// readTable reads the string table into v's and the body's length, and
// leaves r at the body with r.end at its end: the rendering starts there.
func (r *reader) readTable(v *View) {
	v.table = resize(v.table, r.count(1))
	for i := range v.table {
		v.table[i] = r.raw()
	}
	r.table = v.table
	bodyLen := r.uint()
	if r.err == nil && bodyLen > uint64(r.end-r.p) {
		r.failf("a body of %d bytes with %d left", bodyLen, r.end-r.p)
	}
	if r.err == nil {
		r.end = r.p + int(bodyLen)
	}
}

func (r *reader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("fabric: entry decode at byte %d: "+format, append([]any{r.p}, args...)...)
	}
}

// uint reads a uvarint, as binary.Uvarint does.
func (r *reader) uint() uint64 {
	if r.err != nil {
		return 0
	}
	var v uint64
	for i := 0; i < binary.MaxVarintLen64 && r.p+i < r.end; i++ {
		b := r.s[r.p+i]
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break // past 64 bits
			}
			r.p += i + 1
			return v | uint64(b)<<(7*i)
		}
		v |= uint64(b&0x7f) << (7 * i)
	}
	r.failf("truncated or overlong uvarint")
	return 0
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
// cannot tell them apart. A View's lists are clipped windows of its one
// backing array.
func (r *reader) list() []string {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	if v := r.view; v.pooled {
		at := len(v.lists)
		for ; n > 0; n-- {
			v.lists = append(v.lists, r.str())
		}
		return v.lists[at:len(v.lists):len(v.lists)]
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	return out
}

// resize returns s at length n, in s's own array when it is large
// enough: a View reuses its scratch, and a full decode's empty View
// gets each slice made at exactly its length.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]T, n)
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

// body decodes the entry body into v: the loops, the decisions under
// label and the report. A decode passes res: res takes the result's own
// fields (its maps only from a fresh View), and each loop's clauses go on
// the loop of the re-parsed program it names. A view passes none, and
// the bytes of both are read and checked, then dropped.
func (r *reader) body(v *View, res *core.Result, label string) {
	full := res != nil && !v.pooled
	inlined, reduced, normalized := r.int(), r.int(), r.int()
	inductionVars := r.list()
	if res != nil {
		res.InlinedCalls, res.StrengthReduced, res.NormalizedLoops = int(inlined), int(reduced), int(normalized)
		res.InductionVars = inductionVars
	}
	n := r.count(minPair)
	if full {
		res.InlineSkipped = make(map[string]string, n)
	}
	for ; n > 0; n-- {
		if k, callee := r.str(), r.str(); full {
			res.InlineSkipped[k] = callee
		}
	}
	if n = r.count(minPair); n > 0 && full {
		res.InterprocConstants = make(map[string]int64, n)
	}
	for ; n > 0; n-- {
		if k, c := r.str(), r.int(); full {
			res.InterprocConstants[k] = c
		}
	}

	v.Loops = resize(v.Loops, r.count(minLoop))
	if res != nil {
		v.pars = resize(v.pars, len(v.Loops))[:0] // holds every loop's clauses: &v.pars[i] stays put
	}
	for i := range v.Loops {
		l := &v.Loops[i]
		*l = core.LoopReport{ID: r.str(), Unit: r.str(), Index: r.str(), Depth: int(r.int()), Parallel: r.bool()}
		l.RunTimeTest, l.Reason = r.list(), r.str()
		var p ir.ParInfo
		clauses := r.bool()
		if clauses {
			p = ir.ParInfo{Parallel: r.bool(), Reason: r.str()}
			p.Private, p.PrivateArrays, p.LastValue = r.list(), r.list(), r.list()
			n := r.count(minReduction)
			if res != nil && n > 0 {
				p.Reductions = make([]ir.Reduction, n)
			}
			for j := 0; j < n; j++ {
				if red := (ir.Reduction{Target: r.str(), Op: r.str(), Histogram: r.bool()}); res != nil {
					p.Reductions[j] = red
				}
			}
			p.LRPD = r.list()
		}
		if r.err != nil || res == nil {
			continue
		}
		d := v.byID[loopKey{l.Unit, l.ID}]
		if d == nil {
			r.failf("the entry names loop %s/%s absent from the rendered program", l.Unit, l.ID)
			return
		}
		if clauses {
			v.pars = append(v.pars, p)
			d.Par = &v.pars[len(v.pars)-1]
		}
	}

	v.Decisions = resize(v.Decisions, r.count(minDecision))
	for i := range v.Decisions {
		v.Decisions[i] = obsv.Decision{
			Label: label, Unit: r.str(), Loop: r.str(), Index: r.str(), Depth: int(r.int()),
			Pass: r.str(), Verdict: r.str(), Technique: r.str(), Blocker: r.str(), Detail: r.str(),
			Evidence: r.list(), Final: r.bool(),
		}
	}

	v.Report.TotalNS = r.int()
	v.Report.Events = resize(v.Report.Events, r.capped(minEvent, maxReportEvents))
	for i := range v.Report.Events {
		ev := &v.Report.Events[i]
		m := ev.Mutations // a View's, emptied by Release; nil in a full decode
		*ev = obsv.Span{Seq: int(r.int()), Pass: r.str(), DurationNS: r.int()}
		n := r.capped(minPair, maxMutationKeys)
		if m == nil && n > 0 {
			m = make(map[string]int64, n)
		}
		for ; n > 0; n-- {
			k := r.str()
			m[k] = r.int()
		}
		ev.Mutations, ev.Err = m, r.str()
	}
	if r.err == nil && r.p != r.end {
		r.err = fmt.Errorf("fabric: %d bytes left over in the entry body", r.end-r.p)
	}
}

// uvarintLen is len(binary.AppendUvarint(nil, v)).
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// stringLen is the encoded length of an inline string.
func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// sumHex is the hex SHA-256 of an entry, streamed to the digest where it
// stands: converting it to bytes would copy it to the heap to hash it.
func sumHex(s string) string {
	sum := digest.Sum256(s)
	return hex.EncodeToString(sum[:])
}
