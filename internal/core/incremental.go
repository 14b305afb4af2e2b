// Incremental per-unit compilation: a bounded memo (an instance of
// store.Store) of per-unit pass results keyed by a content hash of each
// unit's post-prologue state, plus the replay machinery that lets a
// recompile re-run only the units whose inputs changed.
//
// Unit hashes are computed after the whole-program prologue passes
// (interprocedural constant propagation and inline expansion) have
// run, under one of two domain-separated schemes:
//
//   - "src": every unit the inliner cannot mutate is hashed over its
//     raw parse-time source (ir.ProgramUnit.Source), the program's
//     function-name signature (ir.Program.FuncsSig — global parse
//     context that decides whether F(I) is a call or an array
//     reference), and the interproc pass's edit signature for the unit
//     (interproc.Report.UnitSigs — a deterministic script of exactly
//     which formals were specialized away inside it and which argument
//     positions were deleted at its call sites). Same raw source +
//     same function set ⇒ same parse; same parse + same edit script ⇒
//     same post-prologue IR. Nothing is rendered.
//   - "ir": the top unit (the inliner mutates it even when it expands
//     nothing) and any unit without parse metadata is hashed over its
//     canonical Fortran rendering, which the prologue has already
//     folded every interprocedural input into — so any edit that
//     changes what a downstream unit's analysis would see changes
//     that unit's rendering, and therefore its hash.
//
// Every pass after the prologue (normalize, induction,
// dependence-analysis, strength-reduction) is strictly unit-scoped
// (CALL statements are treated conservatively, never followed), which
// is what makes the per-unit memoization sound; DESIGN.md §12 carries
// the staleness argument in full.
//
// A unit whose hash is found completed in the memo is "clean": the
// memoized final IR is installed in the program directly — completed
// entries are immutable and Result.Program is read-only by contract
// (the compile service already shares one Result across requests), so
// no defensive clone is needed — and each per-unit pass replays the
// captured Decision provenance and mutation counters instead of
// re-running, exactly as whole-program cache hits replay theirs.
// Units whose hash misses are "dirty": they claim an in-flight memo
// slot, run live, and publish their final IR and records when the
// pipeline commits.
package core

import (
	"crypto/sha256"
	"hash"
	"strings"
	"unsafe"

	"polaris/internal/deps"
	"polaris/internal/ir"
	"polaris/internal/obsv"
	"polaris/internal/passes"
	"polaris/internal/store"
)

// unitMemoVersion salts every unit hash; bump it whenever the meaning
// of a memoized record changes (new per-unit pass, changed record
// layout), so stale entries from an older scheme can never replay.
const unitMemoVersion = "polaris-unit-memo/v2"

// unitHasher computes the unit keys of one compilation under the two
// schemes the package comment describes, whose tags domain-separate
// them so a key can never alias across schemes. SHA-256 is load-
// bearing, not ceremony: the memo is shared across compile-service
// requests, so an attacker-constructed collision would replay one
// program's unit into another — the hash must be collision-resistant
// against adversarial input.
//
// One digest, one fingerprint and one copy buffer serve every unit:
// hash.Hash takes bytes, and handing it each string converted would
// copy the unit's text to the heap to hash it.
type unitHasher struct {
	h    hash.Hash
	salt string // memo version and technique fingerprint
	buf  [4096]byte
}

func newUnitHasher(opt Options) *unitHasher {
	return &unitHasher{h: sha256.New(), salt: unitMemoVersion + "\x00" + incrFingerprint(opt)}
}

// key hashes the salt, the scheme tag and the parts, NUL-separated:
// "ir" over the unit's canonical post-prologue rendering; "src", for a
// unit the prologue cannot have touched, over the program's function-
// name signature (the complete parse context), the interproc pass's
// edit signature for the unit ("" when the pass left it alone) and the
// unit's raw parse-time source.
func (uh *unitHasher) key(scheme string, parts ...string) (k [32]byte) {
	uh.h.Reset()
	uh.write(uh.salt)
	uh.write("\x00")
	uh.write(scheme)
	for _, part := range parts {
		uh.write("\x00")
		uh.write(part)
	}
	uh.h.Sum(k[:0])
	return k
}

func (uh *unitHasher) write(s string) {
	for len(s) > 0 {
		n := copy(uh.buf[:], s)
		uh.h.Write(uh.buf[:n])
		s = s[n:]
	}
}

// unitPassRecord is what one per-unit pass produced for one unit: the
// Decision provenance (replayed relabeled on reuse, like whole-program
// cache hits), the pass's mutation counters, and the pass-specific
// side outputs the driver folds into Result.
type unitPassRecord struct {
	decisions []obsv.Decision
	counters  map[string]int64
	// solved lists the qualified induction variables (induction pass).
	solved []string
	// reports are the unit's loop verdicts as of this pass
	// (dependence-analysis pass). Their Loop pointers point into the
	// entry's memoized unit — the same object every reusing compilation
	// installs — so replay needs no pointer rebinding.
	reports []LoopReport
	// stats are the unit's dependence-test counts (dependence-analysis
	// pass).
	stats deps.Stats
}

// emptyRecord stands in when a completed entry somehow lacks a pass's
// record; replaying it is a no-op. The fingerprint pins the technique
// set, so a completed entry always carries a record for every enabled
// per-unit pass and this is defense in depth only.
var emptyRecord = &unitPassRecord{}

// unitEntry is one memo entry's payload: the unit's final IR and its
// per-pass records, written by the compilation that claimed the key and
// immutable once published, so a compilation holding one may keep
// replaying from it after eviction drops it from the memo.
type unitEntry struct {
	unit *ir.ProgramUnit
	recs map[string]*unitPassRecord
}

// MemoLimits bounds a UnitMemo (zero fields mean unlimited); in-flight
// units are pinned and do not count until they complete.
type MemoLimits = store.Limits

// MemoStats is a point-in-time snapshot of a UnitMemo.
type MemoStats struct {
	// Entries and Bytes count completed (evictable) entries; in-flight
	// claims are excluded.
	Entries int
	Bytes   int64
	// Hits counts unit lookups served from a completed entry
	// (including after waiting on another compilation's in-flight
	// fill); Misses counts lookups that claimed the slot and ran the
	// unit's passes.
	Hits   int64
	Misses int64
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64
}

// UnitMemo is the bounded per-unit memo behind incremental
// compilation: a store.Store keyed by unit hash, safe for concurrent use
// by any number of compilations, which claim their dirty units in one
// batch (store.Store.Acquire). It lives beside the service's
// whole-program cache — that one answers exact-source repeats, the
// unit memo everything an edit left untouched.
type UnitMemo struct {
	s *store.Store[[32]byte, *unitEntry]
}

// NewUnitMemo returns an empty memo bounded by lim.
func NewUnitMemo(lim MemoLimits) *UnitMemo {
	return &UnitMemo{s: store.New[[32]byte, *unitEntry](lim)}
}

// Stats snapshots the memo gauges and counters.
func (m *UnitMemo) Stats() MemoStats {
	st := m.s.Stats()
	return MemoStats{Entries: st.Entries, Bytes: st.Bytes, Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions}
}

// entrySize estimates a completed entry's resident size, as
// TestUnitMemoBooksWhatItHolds measures it against the live heap: the
// unit's IR and its own copy of the source come to about nine bytes per
// byte of the text that keyed it (rendered or raw), the memo's
// bookkeeping to about 384 bytes an entry, and each pass record to its
// struct and counters plus the decisions, reports and induction
// variables it captured. Decision strings the IR already holds (unit
// and loop names) are not counted again. The estimate is computed once
// at commit and is therefore exact for the add-on-insert /
// subtract-on-evict accounting.
func entrySize(keyLen int, recs map[string]*unitPassRecord) int64 {
	s := int64(keyLen)*9 + 384
	for _, rec := range recs {
		s += 256
		for _, d := range rec.decisions {
			s += int64(unsafe.Sizeof(d)) + int64(len(d.Detail)+len(d.Technique)+len(d.Blocker))
			for _, ev := range d.Evidence {
				s += int64(unsafe.Sizeof(ev)) + int64(len(ev))
			}
		}
		for _, lr := range rec.reports {
			s += int64(unsafe.Sizeof(lr)) + int64(len(lr.LRPD))*int64(unsafe.Sizeof(""))
		}
		for _, v := range rec.solved {
			s += int64(unsafe.Sizeof(v)) + int64(len(v))
		}
	}
	return s
}

// incrState is the compile-local incremental slate: the per-unit keys
// and acquisition results of one pipeline run. It is created by
// CompileContext when Options.UnitMemo is set and threaded through the
// pipeline closures.
type incrState struct {
	memo  *UnitMemo
	label string

	// interSigs is the interproc pass's per-unit edit-script signature
	// map (nil when that pass is disabled; absent key = unit untouched).
	// It is folded into the "src" hash so a mutated unit's key covers
	// the exact edits applied to it.
	interSigs map[string]string

	keys   [][32]byte
	reuse  []*unitEntry                        // completed entries (clean units)
	claims []store.Claim[[32]byte, *unitEntry] // keys this compilation must fill (dirty units)
	recs   []map[string]*unitPassRecord
	// keyLen caches each unit's hashed-text length (raw source or
	// rendering) for the commit-time size estimate.
	keyLen []int
}

// acquirePass implements the unit-hash pass: hash every unit, resolve
// the memo, and install each clean unit's memoized final IR in the
// program. It runs after the whole-program prologue and before the
// first per-unit pass.
//
// Scheme selection per unit: the top unit (the inliner mutates it even
// when it expands nothing — IDs and splices land there) and any unit
// without parse metadata (Source or FuncsSig empty — built or merged
// programmatically) hash under the "ir" scheme over their canonical
// rendering; every other unit hashes under the "src" scheme over its
// raw parse-time source plus interproc's edit signature for it,
// skipping the rendering entirely. On a megaprogram that turns the
// hash step from O(program rendering) into O(one unit's rendering +
// raw-byte hashing). own is buildPipeline's: a unit keyed by its
// rendering is taken first, the rest stay the input's until the memo
// has answered.
func (st *incrState) acquirePass(c *passes.Context, work *ir.Program, res *Result, opt Options, own func(i int) *ir.ProgramUnit) error {
	st.keys = make([][32]byte, len(work.Units))
	st.keyLen = make([]int, len(work.Units))
	top := work.Main()
	uh := newUnitHasher(opt)
	for i, u := range work.Units {
		if u.Source == "" || work.FuncsSig == "" || (opt.Inline && u == top) {
			// The rendering must show the prologue's edits, which land on
			// a unit when it is taken (the top unit already was).
			rendered := own(i).Fortran()
			st.keyLen[i] = len(rendered)
			st.keys[i] = uh.key("ir", rendered)
		} else {
			st.keyLen[i] = len(u.Source)
			st.keys[i] = uh.key("src", work.FuncsSig, st.interSigs[u.Name], u.Source)
		}
	}
	reuse, claims, err := st.memo.s.Acquire(c.Context(), st.keys)
	if err != nil {
		return err
	}
	st.reuse, st.claims = reuse, claims
	st.recs = make([]map[string]*unitPassRecord, len(work.Units))
	for i := range work.Units {
		if e := reuse[i]; e != nil {
			// Shared, not cloned: completed entries are immutable, every
			// pass downstream of this one only reads clean units, and
			// Result.Program is read-only by contract. Two indices can
			// never resolve to one entry within a program — a unit's key
			// covers its name (header line in either scheme) and
			// duplicate unit names cannot parse or Add.
			work.Units[i] = e.unit
			res.UnitsReused++
		} else {
			st.recs[i] = map[string]*unitPassRecord{}
			res.UnitsRecompiled++
		}
	}
	c.Count("units_reused", int64(res.UnitsReused))
	c.Count("units_recompiled", int64(res.UnitsRecompiled))
	return nil
}

// record returns the completed entry's record for (unit i, pass), or
// nil when the unit is dirty and must run live.
func (st *incrState) record(i int, pass string) *unitPassRecord {
	e := st.reuse[i]
	if e == nil {
		return nil
	}
	if rec := e.recs[pass]; rec != nil {
		return rec
	}
	return emptyRecord
}

// dirtyRec returns the in-progress record for (dirty unit i, pass),
// creating it. Returns nil on the non-incremental path (nil receiver)
// and for an unmemoized duplicate-key unit, so pass closures can call
// it unconditionally.
func (st *incrState) dirtyRec(i int, pass string) *unitPassRecord {
	if st == nil || st.recs == nil || st.recs[i] == nil {
		return nil
	}
	rec := st.recs[i][pass]
	if rec == nil {
		rec = &unitPassRecord{}
		st.recs[i][pass] = rec
	}
	return rec
}

// forEach is the incremental analogue of forEachUnit: in unit order,
// a dirty unit runs live through a capture that forwards each decision
// to obs and keeps it for the memo, and a clean unit replays its
// memoized record in the same stream position, so the Decision stream
// is byte-identical to a from-scratch compile.
//
// replay, when non-nil, folds the memoized record's side outputs into
// the pass's per-index slots (the same slots live fills).
func (st *incrState) forEach(c *passes.Context, units []*ir.ProgramUnit, obs *obsv.Observer, pass string,
	live func(i int, uo *obsv.Observer) error,
	replay func(i int, rec *unitPassRecord)) error {
	for i := range units {
		if err := c.Err(); err != nil {
			return err
		}
		if rec := st.record(i, pass); rec != nil {
			st.emit(c, rec, obs, replay, i)
			continue
		}
		capture := obsv.NewCapture(obs)
		if err := live(i, capture); err != nil {
			return err
		}
		if rec := st.dirtyRec(i, pass); rec != nil {
			rec.decisions = capture.Decisions()
		}
	}
	return nil
}

// emit replays one memoized record in stream position: decisions are
// relabeled to this compilation's label (the memo stores them under
// the label of whichever compilation filled the entry), counters feed
// the running pass's mutation sink, and the side outputs flow through
// replay into the pass's per-index slots.
func (st *incrState) emit(c *passes.Context, rec *unitPassRecord, obs *obsv.Observer,
	replay func(i int, rec *unitPassRecord), i int) {
	obs.ReplayDecisions(rec.decisions, st.label)
	for k, v := range rec.counters {
		c.Count(k, v)
	}
	if replay != nil {
		replay(i, rec)
	}
}

// commit completes every claim after a successful pipeline run: the
// final transformed unit itself becomes the entry's payload — the
// compilation's Result.Program shares it, read-only from here on,
// exactly as reusing compilations will — and the entry joins the
// memo's LRU.
func (st *incrState) commit(work *ir.Program) {
	for i, c := range st.claims {
		if !c.Held() {
			continue
		}
		u := work.Units[i]
		// The parser slices Source out of the whole input; an entry
		// owns its bytes, or it would keep the source of the compile
		// that filled it alive for as long as it stays in the memo.
		u.Source = strings.Clone(u.Source)
		c.Complete(&unitEntry{unit: u, recs: st.recs[i]}, entrySize(st.keyLen[i], st.recs[i]))
	}
}

// abort releases every claim after a failed or canceled pipeline run,
// freeing the keys for waiters to retry.
func (st *incrState) abort(err error) {
	for _, c := range st.claims {
		if c.Held() {
			c.Release(err)
		}
	}
}

// toMemoReports snapshots a unit's loop reports for its memo record.
// The unit itself is the entry's payload at commit, so the Loop
// pointers stay valid verbatim; the structs are copied (fresh backing
// array, defensive LRPD copy) because the strength-reduction pass
// later updates the Parallel/Reason of the compilation's own copies in
// Result.Loops, and the record must keep the as-of-dependence-analysis
// values every replay starts from.
func toMemoReports(reports []LoopReport) []LoopReport {
	out := make([]LoopReport, len(reports))
	copy(out, reports)
	for j := range out {
		out[j].LRPD = append([]string(nil), out[j].LRPD...)
	}
	return out
}
