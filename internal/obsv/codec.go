package obsv

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"
)

// The decision codec: one buffer of uvarints (encoding/binary) and
// string-table indices. An Encoder writes a body, interning each string
// it names in a table, once, in order of first use; a Reader reads the
// table back, then the body. A decision section is the count of its
// records and, per record, its fields in Decision's order but Label,
// which a reader supplies: the same records read back under the label
// of whoever replays them. The fabric's wire entry wraps a body of its
// own around one section (DESIGN.md §13 "Entry layout"); the unit memo
// keeps each unit's sections in one string of their own (EncodeLists).

// Encoder writes a body into Buf, interning the strings it names in
// Table. The zero value is ready to use; Reset empties it for reuse.
type Encoder struct {
	Buf        []byte   // the body
	Table      []string // every string the body names, once, in order of first use
	TableBytes int      // the table's encoded length, each string inline
	index      map[string]uint64
}

// Reset empties e, keeping its map and slices: it then holds no string
// it was given.
func (e *Encoder) Reset() {
	clear(e.index)
	clear(e.Table)
	e.Buf, e.Table, e.TableBytes = e.Buf[:0], e.Table[:0], 0
}

// Uint writes a uvarint.
func (e *Encoder) Uint(v uint64) { e.Buf = binary.AppendUvarint(e.Buf, v) }

// Int writes v zigzagged, as binary.AppendVarint does.
func (e *Encoder) Int(v int64) { e.Uint(uint64(v<<1) ^ uint64(v>>63)) }

// Bool writes 1 or 0.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint(1)
	} else {
		e.Uint(0)
	}
}

// Str writes a string as its table index, interning it on first use.
func (e *Encoder) Str(s string) {
	i, ok := e.index[s]
	if !ok {
		if e.index == nil {
			e.index = map[string]uint64{}
		}
		i = uint64(len(e.Table))
		e.index[s] = i
		e.Table = append(e.Table, s)
		e.TableBytes += StringLen(s)
	}
	e.Uint(i)
}

// List writes a list of strings: its length, then each string's index.
// Empty and nil encode alike, and read back as nil.
func (e *Encoder) List(ss []string) {
	e.Uint(uint64(len(ss)))
	for _, s := range ss {
		e.Str(s)
	}
}

// Decisions writes a decision section: the count, then each record but
// its label.
func (e *Encoder) Decisions(ds []Decision) {
	e.Uint(uint64(len(ds)))
	for i := range ds {
		d := &ds[i]
		e.Str(d.Unit)
		e.Str(d.Loop)
		e.Str(d.Index)
		e.Int(int64(d.Depth))
		e.Str(d.Pass)
		e.Str(d.Verdict)
		e.Str(d.Technique)
		e.Str(d.Blocker)
		e.Str(d.Detail)
		e.List(d.Evidence)
		e.Bool(d.Final)
	}
}

// Reader reads what an Encoder wrote: S from P up to End. Its first
// error sticks: every later read returns a zero value and every count
// is 0, so a failed read allocates nothing more.
type Reader struct {
	S     string // every string read is a substring of it
	P     int
	End   int // the end of the section being read
	Table []string
	Err   error
	// Shared, when set, backs every list the reader returns: each is a
	// clipped window of it, where otherwise each is made at its length.
	Shared *[]string
}

// Failf sets r's error, unless it has one, at the current position.
func (r *Reader) Failf(format string, args ...any) {
	if r.Err == nil {
		r.Err = fmt.Errorf("decode at byte %d: "+format, append([]any{r.P}, args...)...)
	}
}

// Uint reads a uvarint, as binary.Uvarint does.
func (r *Reader) Uint() uint64 {
	if r.Err != nil {
		return 0
	}
	var v uint64
	for i := 0; i < binary.MaxVarintLen64 && r.P+i < r.End; i++ {
		b := r.S[r.P+i]
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break // past 64 bits
			}
			r.P += i + 1
			return v | uint64(b)<<(7*i)
		}
		v |= uint64(b&0x7f) << (7 * i)
	}
	r.Failf("truncated or overlong uvarint")
	return 0
}

// Int reads a zigzagged varint, as binary.Varint does.
func (r *Reader) Int() int64 {
	u := r.Uint()
	return int64(u>>1) ^ -int64(u&1)
}

// Bool reads what Encoder.Bool wrote: any non-zero value is true.
func (r *Reader) Bool() bool { return r.Uint() != 0 }

// Count reads a length and checks that the bytes left could hold that
// many elements of at least min bytes each.
func (r *Reader) Count(min int) int {
	n := r.Uint()
	if left := uint64((r.End - r.P) / min); n > left {
		r.Failf("a count of %d where the bytes left hold at most %d", n, left)
		return 0
	}
	return int(n)
}

// Capped is Count with a fixed ceiling as well.
func (r *Reader) Capped(min, max int) int {
	n := r.Count(min)
	if n > max {
		r.Failf("a count of %d over the cap of %d", n, max)
		return 0
	}
	return n
}

// Raw reads an inline string: its length, then its bytes.
func (r *Reader) Raw() string {
	n := r.Count(1)
	s := r.S[r.P : r.P+n]
	r.P += n
	return s
}

// ReadTable reads a string table — its count, then each string inline —
// into table, resized, and makes it the one r's indices name.
func (r *Reader) ReadTable(table []string) []string {
	table = Resize(table, r.Count(1))
	for i := range table {
		table[i] = r.Raw()
	}
	r.Table = table
	return table
}

// Str reads a table index.
func (r *Reader) Str() string {
	i := r.Uint()
	if i >= uint64(len(r.Table)) {
		if r.Err == nil {
			r.Failf("string index %d in a table of %d", i, len(r.Table))
		}
		return ""
	}
	return r.Table[i]
}

// List reads a list of table indices; empty is nil, as the encoder
// cannot tell them apart.
func (r *Reader) List() []string {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	if r.Shared != nil {
		at := len(*r.Shared)
		for ; n > 0; n-- {
			*r.Shared = append(*r.Shared, r.Str())
		}
		return (*r.Shared)[at:len(*r.Shared):len(*r.Shared)]
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.Str()
	}
	return out
}

// minDecision is a record's smallest encoding: one byte per field.
const minDecision = 11

// DecisionCount reads a decision section's count, checked against the
// bytes left, for ReadDecisions to fill that many records.
func (r *Reader) DecisionCount() int { return r.Count(minDecision) }

// ReadDecisions reads len(ds) records of a section into ds, each under
// label.
func (r *Reader) ReadDecisions(ds []Decision, label string) {
	for i := range ds {
		ds[i] = Decision{
			Label: label, Unit: r.Str(), Loop: r.Str(), Index: r.Str(), Depth: int(r.Int()),
			Pass: r.Str(), Verdict: r.Str(), Technique: r.Str(), Blocker: r.Str(), Detail: r.Str(),
			Evidence: r.List(), Final: r.Bool(),
		}
	}
}

// skipDecisions reads past a decision section, checking it as
// ReadDecisions does, and keeps nothing.
func (r *Reader) skipDecisions() {
	for n := r.DecisionCount(); n > 0; n-- {
		for range 3 {
			r.Str() // unit, loop, index
		}
		r.Int()
		for range 5 {
			r.Str() // pass, verdict, technique, blocker, detail
		}
		for m := r.Count(1); m > 0; m-- {
			r.Str()
		}
		r.Bool()
	}
}

// Resize returns s at length n, in s's own array when it is large
// enough, else made at exactly n.
func Resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]T, n)
}

// UvarintLen is len(binary.AppendUvarint(nil, v)).
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// StringLen is the encoded length of an inline string.
func StringLen(s string) int { return UvarintLen(uint64(len(s))) + len(s) }

// listEncoders keeps an Encoder's map and slices from one EncodeLists
// to the next.
var listEncoders = sync.Pool{New: func() any { return new(Encoder) }}

// EncodeLists encodes lists of records as one string — its string
// table, each string inline, then one decision section per list, in
// order — in one allocation of exactly its length. Labels are not
// written. Lists are read back by position: DecodeList, or
// Observer.ReplayList straight into an observer.
func EncodeLists(lists ...[]Decision) string {
	e := listEncoders.Get().(*Encoder)
	defer func() { e.Reset(); listEncoders.Put(e) }()
	for _, ds := range lists {
		e.Decisions(ds)
	}
	var b strings.Builder
	b.Grow(UvarintLen(uint64(len(e.Table))) + e.TableBytes + len(e.Buf))
	var scratch [binary.MaxVarintLen64]byte
	b.Write(binary.AppendUvarint(scratch[:0], uint64(len(e.Table))))
	for _, s := range e.Table {
		b.Write(binary.AppendUvarint(scratch[:0], uint64(len(s))))
		b.WriteString(s)
	}
	b.Write(e.Buf)
	return b.String()
}

// tables keeps the string table of one list read for the next: it is
// scratch, as every string a record takes is a substring of the
// encoding. Made afresh, the tables of an observed mega50k edit compile
// were a fifth of what it allocated.
var tables = sync.Pool{New: func() any { return new([]string) }}

// listAt returns a reader at the count of list k of enc, its table read
// into pooled scratch, which putTable hands back.
func listAt(enc string, k int) (Reader, *[]string) {
	t := tables.Get().(*[]string)
	r := Reader{S: enc, End: len(enc)}
	*t = r.ReadTable(*t)
	for ; k > 0; k-- {
		r.skipDecisions()
	}
	return r, t
}

// putTable returns a table listAt read to the pool, holding no string.
func putTable(t *[]string) {
	clear(*t)
	*t = (*t)[:0]
	tables.Put(t)
}

// DecodeList returns list k of enc, an EncodeLists string, each record
// under label and every string a substring of enc; nil when the list is
// empty.
func DecodeList(enc string, k int, label string) ([]Decision, error) {
	r, t := listAt(enc, k)
	defer putTable(t)
	var ds []Decision
	if n := r.DecisionCount(); n > 0 {
		ds = make([]Decision, n)
		r.ReadDecisions(ds, label)
	}
	if r.Err != nil {
		return nil, fmt.Errorf("obsv: decision list %d: %w", k, r.Err)
	}
	return ds, nil
}

// ReplayList records list k of enc, an EncodeLists string, under label,
// as ReplayDecisions records a list: the records are read straight into
// the observer's own, their strings substrings of enc. A nil observer
// reads nothing.
func (o *Observer) ReplayList(enc string, k int, label string) error {
	if o == nil {
		return nil
	}
	r, t := listAt(enc, k)
	defer putTable(t)
	n := r.DecisionCount()
	if r.Err == nil && n > 0 {
		o.mu.Lock()
		at := len(o.decisions)
		o.decisions = slices.Grow(o.decisions, n)[:at+n]
		if r.ReadDecisions(o.decisions[at:], label); r.Err != nil {
			clear(o.decisions[at:])
			o.decisions = o.decisions[:at]
			o.mu.Unlock()
		} else {
			o.replayed(at, label)
		}
	}
	if r.Err != nil {
		return fmt.Errorf("obsv: decision list %d: %w", k, r.Err)
	}
	return nil
}
