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
// captured Decision provenance instead of re-running, exactly as
// whole-program cache hits replay theirs, then folds the memoized
// record into Result as it folds a live one. Units whose hash misses
// are "dirty": they claim an in-flight memo slot, run live, and publish
// their final IR and record when the pipeline commits.
package core

import (
	"crypto/sha256"
	"hash"
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
const unitMemoVersion = "polaris-unit-memo/v5"

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

// unitPass indexes a unitRecord's captured decisions by per-unit pass;
// list numUnitPasses holds the verdicts.
type unitPass int

const (
	passNormalize unitPass = iota
	passInduction
	passDependence
	passStrength
	numUnitPasses
)

// unitRecord is everything the per-unit passes left for one unit of one
// compile, and the only place they leave it: a unit the pipeline runs
// gets a fresh record its passes write, which becomes the memo entry's
// record at commit; a clean unit's slot is its entry's record, which
// nothing writes. The driver folds every unit's record into Result the
// same way, clean or dirty.
type unitRecord struct {
	// normalized counts the loops rewritten to unit step (normalize).
	normalized int
	// solved lists the qualified induction variables (induction).
	solved []string
	// reports are the unit's loop verdicts as of dependence analysis.
	// They name the unit's loops by ID and point into nothing, so
	// replay needs no rebinding. The compile's copies in Result.Loops
	// are the ones strength reduction updates.
	reports []LoopReport
	// verdicts are the final records of those loops, parallel to
	// reports, built only when someone keeps them (dependence analysis).
	// A compile emits them after its last pass, relabeled.
	verdicts []obsv.Decision
	// stats are the unit's dependence-test counts.
	stats deps.Stats
	// reduced counts the accumulators strength reduction introduced.
	reduced int
	// decisions holds each pass's Decision provenance, indexed by
	// unitPass, as a dirty unit's passes capture it: made only under a
	// memo, and encoded into provenance at commit. An array pointer and
	// the string take what one slice did: without a memo, every unit's
	// record is in one block.
	decisions *[numUnitPasses + 1][]obsv.Decision
	// provenance is a committed record's decisions and verdicts, in the
	// decision codec's encoding (obsv.EncodeLists): only an observer
	// reads them, so only a compile with one decodes them, relabeled.
	provenance string
}

// unitEntry is one memo entry's payload: the unit's final IR and its
// record, written by the compilation that claimed the key and immutable
// once published, so a compilation holding one may keep replaying from
// it after eviction drops it from the memo.
type unitEntry struct {
	unit *ir.ProgramUnit
	rec  *unitRecord
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
// unit's IR but its symbol table comes to about five bytes per byte of
// the text that keyed it (rendered or raw: the entry keeps neither);
// the table to tabBytes, ir.DetachAll's figure, which books a
// symbol the commit's units share to the first of them only; the memo's
// bookkeeping to about 384 bytes an entry; and the record to its struct
// plus its encoded provenance, reports and induction variables. The
// estimate is computed once at commit and is therefore exact for the
// add-on-insert / subtract-on-evict accounting.
func entrySize(keyLen, tabBytes int, rec *unitRecord) int64 {
	s := int64(keyLen)*5 + int64(tabBytes) + 384 + int64(unsafe.Sizeof(*rec)) + int64(len(rec.provenance))
	// A report's RunTimeTest list is its loop annotation's, held by the IR.
	s += int64(len(rec.reports)) * int64(unsafe.Sizeof(LoopReport{}))
	for _, v := range rec.solved {
		s += int64(unsafe.Sizeof(v)) + int64(len(v))
	}
	return s
}

// incrState is the compile-local incremental slate: the per-unit keys,
// acquisition results and records of one pipeline run. It is created by
// CompileContext when Options.UnitMemo is set and threaded through the
// pipeline closures.
type incrState struct {
	memo  *UnitMemo
	label string

	// interSigs is the interproc pass's edit-script signature of each
	// unit, by position (nil when that pass is disabled; "" = unit
	// untouched). It is folded into the "src" hash so a mutated unit's
	// key covers the exact edits applied to it.
	interSigs []string

	keys   [][32]byte
	reuse  []*unitEntry                        // completed entries (clean units)
	claims []store.Claim[[32]byte, *unitEntry] // keys this compilation must fill (dirty units)
	recs   []*unitRecord                       // the entry's record (clean) or a fresh one (dirty)
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
// without parse metadata (Source or FuncsSig empty — built
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
			var sig string
			if st.interSigs != nil {
				sig = st.interSigs[i]
			}
			st.keyLen[i] = len(u.Source)
			st.keys[i] = uh.key("src", work.FuncsSig, sig, u.Source)
		}
	}
	reuse, claims, err := st.memo.s.Acquire(c.Context(), st.keys)
	if err != nil {
		return err
	}
	st.reuse, st.claims = reuse, claims
	st.recs = make([]*unitRecord, len(work.Units))
	for i := range work.Units {
		if e := reuse[i]; e != nil {
			// Shared, not cloned: completed entries are immutable, every
			// pass downstream of this one only reads clean units, and
			// Result.Program is read-only by contract. Two indices can
			// never resolve to one entry within a program — a unit's key
			// covers its name (header line in either scheme) and
			// duplicate unit names cannot parse or Add.
			work.Units[i], st.recs[i] = e.unit, e.rec
			res.UnitsReused++
		} else {
			st.recs[i] = &unitRecord{decisions: new([numUnitPasses + 1][]obsv.Decision)}
			res.UnitsRecompiled++
		}
	}
	c.Count("units_reused", int64(res.UnitsReused))
	c.Count("units_recompiled", int64(res.UnitsRecompiled))
	if opt.Observer != nil && res.UnitsReused > 0 {
		// The records this compile adds: every clean unit's kept lists,
		// replayed pass by pass and as final verdicts, and for each
		// dirty unit as many as the most any clean unit keeps. Reserved
		// at once, the observer's list is allocated once, where growing
		// it by doubling ended an observed mega10k edit at 8192 slots
		// for 4707 records.
		n, most := 0, 0
		for _, e := range reuse {
			if e != nil {
				k := obsv.ListsLen(e.rec.provenance)
				n += k
				most = max(most, k)
			}
		}
		opt.Observer.Reserve(n + most*res.UnitsRecompiled)
	}
	return nil
}

// commit completes every claim after a successful pipeline run: the
// final transformed unit itself and the record its passes wrote become
// the entry's payload — the compilation's Result.Program shares the
// unit, read-only from here on, exactly as reusing compilations will —
// and the entry joins the memo's LRU. The record keeps its captured
// decisions and verdicts encoded, as one string.
func (st *incrState) commit(work *ir.Program) {
	// A one-unit edit's batch stays on the stack.
	var one [1]ir.Detached
	batch := one[:0]
	for i, c := range st.claims {
		if c.Held() {
			batch = append(batch, ir.Detached{Table: work.Units[i].Symbols})
		}
	}
	// The parsed unit's table points at the equal symbols of the units
	// parsed before it (ir.SymbolBuilder.Table), and a clone's at the
	// parsed unit's (ir.SymbolTable.Clone); either would keep whole
	// parse blocks alive, unbooked. So every table is detached, all in
	// one batch: a symbol the committed units share is copied once, and
	// booked to the first entry that holds it.
	ir.DetachAll(batch)
	j := 0
	for i, c := range st.claims {
		if !c.Held() {
			continue
		}
		u := work.Units[i]
		// The parser slices Source out of the whole input, which an
		// entry would keep alive for as long as it stays in the memo. A
		// cloned unit dropped it when it was taken; one taken in place
		// under TrustedInput drops it here.
		u.DropSource()
		u.Symbols = batch[j].Table
		rec := st.recs[i]
		if rec.decisions != nil { // made by acquirePass: a record built without one has nothing to encode
			rec.decisions[numUnitPasses] = rec.verdicts
			rec.provenance = obsv.EncodeLists(rec.decisions[:]...)
			rec.decisions, rec.verdicts = nil, nil
		}
		c.Complete(&unitEntry{unit: u, rec: rec}, entrySize(st.keyLen[i], batch[j].Bytes, rec))
		j++
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
