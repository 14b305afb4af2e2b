package rt

import (
	"flag"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// ---- polaris runtime support (fixed preamble) ----

type hdr struct {
	rank   int
	lo, sz [7]int64
}

// arr is column-major array storage, int64- or float64-backed exactly
// as the reference interpreter's Array (integer arrays hold int64,
// everything else float64).
type arr struct {
	isInt bool
	f     []float64
	i     []int64
	h     hdr
}

func total(a arr) int64 {
	if a.isInt {
		return int64(len(a.i))
	}
	return int64(len(a.f))
}

// mkarr allocates an array; negative extents clamp to zero, as the
// interpreter's allocation path does.
func mkarr(isInt bool, lo, sz []int64) arr {
	a := arr{isInt: isInt}
	a.h.rank = len(sz)
	t := int64(1)
	for k := range sz {
		s := sz[k]
		if s < 0 {
			s = 0
		}
		a.h.lo[k] = lo[k]
		a.h.sz[k] = s
		t *= s
	}
	if isInt {
		a.i = make([]int64, t)
	} else {
		a.f = make([]float64, t)
	}
	return a
}

func oob(nm string) {
	panic("subscript out of bounds for " + nm)
}

func badRank(nm string) {
	panic("wrong subscript count for " + nm)
}

// ix1..ix7 map subscripts to a flat index with the same signed bounds
// checks as the interpreter's Flat (reshaped views may carry negative
// extents, which must always fail).

func ix1(h *hdr, nm string, x0 int64) int64 {
	if h.rank != 1 {
		badRank(nm)
	}
	x0 -= h.lo[0]
	if x0 < 0 || x0 >= h.sz[0] {
		oob(nm)
	}
	return x0
}

func ix2(h *hdr, nm string, x0, x1 int64) int64 {
	if h.rank != 2 {
		badRank(nm)
	}
	x0 -= h.lo[0]
	x1 -= h.lo[1]
	if x0 < 0 || x0 >= h.sz[0] || x1 < 0 || x1 >= h.sz[1] {
		oob(nm)
	}
	return x0 + h.sz[0]*x1
}

func ix3(h *hdr, nm string, x0, x1, x2 int64) int64 {
	if h.rank != 3 {
		badRank(nm)
	}
	x0 -= h.lo[0]
	x1 -= h.lo[1]
	x2 -= h.lo[2]
	if x0 < 0 || x0 >= h.sz[0] || x1 < 0 || x1 >= h.sz[1] || x2 < 0 || x2 >= h.sz[2] {
		oob(nm)
	}
	return x0 + h.sz[0]*(x1+h.sz[1]*x2)
}

func ixn(h *hdr, nm string, xs ...int64) int64 {
	if h.rank != len(xs) {
		badRank(nm)
	}
	idx := int64(0)
	stride := int64(1)
	for d := range xs {
		off := xs[d] - h.lo[d]
		if off < 0 || off >= h.sz[d] {
			oob(nm)
		}
		idx += off * stride
		stride *= h.sz[d]
	}
	return idx
}

func ix4(h *hdr, nm string, x0, x1, x2, x3 int64) int64 {
	return ixn(h, nm, x0, x1, x2, x3)
}

func ix5(h *hdr, nm string, x0, x1, x2, x3, x4 int64) int64 {
	return ixn(h, nm, x0, x1, x2, x3, x4)
}

func ix6(h *hdr, nm string, x0, x1, x2, x3, x4, x5 int64) int64 {
	return ixn(h, nm, x0, x1, x2, x3, x4, x5)
}

func ix7(h *hdr, nm string, x0, x1, x2, x3, x4, x5, x6 int64) int64 {
	return ixn(h, nm, x0, x1, x2, x3, x4, x5, x6)
}

// cloneShape returns a zeroed array of the same shape (private-array
// overlays).
func cloneShape(a arr) arr {
	b := a
	if a.isInt {
		b.i = make([]int64, len(a.i))
	} else {
		b.f = make([]float64, len(a.f))
	}
	return b
}

// cloneData returns a deep copy (LRPD speculative copies).
func cloneData(a arr) arr {
	b := a
	if a.isInt {
		b.i = append([]int64(nil), a.i...)
	} else {
		b.f = append([]float64(nil), a.f...)
	}
	return b
}

// window views flattened storage from flat index ix as a fresh
// rank-1 array (sequence association for array-element actuals).
func window(a arr, ix int64) arr {
	b := arr{isInt: a.isInt}
	b.h.rank = 1
	b.h.lo[0] = 1
	if a.isInt {
		b.i = a.i[ix:]
		b.h.sz[0] = int64(len(b.i))
	} else {
		b.f = a.f[ix:]
		b.h.sz[0] = int64(len(b.f))
	}
	return b
}

// rdim is one declarator of a formal-array reshape; the closures
// evaluate the bound in the callee frame and report failure instead of
// panicking (the interpreter keeps the actual's shape on a bound that
// fails to evaluate).
type rdim struct {
	lo, hi  func() (int64, bool)
	assumed bool
}

// rshp views the actual's storage under the formal's declared shape,
// replicating the interpreter's reshapeView fallback rules exactly:
// mid-list assumed sizes, zero used-product, evaluation failures, and
// nonconforming totals all keep the actual's shape. Extents are NOT
// clamped here (a negative extent makes every access fail, as it does
// in the interpreter).
func rshp(actual arr, dims []rdim) arr {
	lo := make([]int64, 0, len(dims))
	sz := make([]int64, 0, len(dims))
	for d := range dims {
		lv, ok1 := dims[d].lo()
		if dims[d].assumed {
			if d != len(dims)-1 {
				return actual
			}
			used := int64(1)
			for _, s := range sz {
				used *= s
			}
			if used == 0 {
				return actual
			}
			if !ok1 {
				lv = 0
			}
			lo = append(lo, lv)
			sz = append(sz, total(actual)/used)
			continue
		}
		hv, ok2 := dims[d].hi()
		if !ok1 || !ok2 {
			return actual
		}
		lo = append(lo, lv)
		sz = append(sz, hv-lv+1)
	}
	t := int64(1)
	for _, s := range sz {
		t *= s
	}
	if t > total(actual) {
		return actual
	}
	b := arr{isInt: actual.isInt, f: actual.f, i: actual.i}
	b.h.rank = len(sz)
	for d := range sz {
		b.h.lo[d] = lo[d]
		b.h.sz[d] = sz[d]
	}
	return b
}

// trips is the Fortran DO trip count (callers reject step 0 first).
func trips(init, limit, step int64) int64 {
	n := (limit-init)/step + 1
	if n < 0 {
		return 0
	}
	return n
}

// parfor runs body over [0,n) in contiguous blocks of ceil(n/workers)
// iterations, one goroutine per non-empty block, and joins. Exactly
// one worker receives hi == n (the owner of the final iteration).
func parfor(n, workers int64, body func(w, lo, hi int64)) {
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := int64(0); w*chunk < n; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int64) {
			defer wg.Done()
			body(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// ipow is integer exponentiation; the interpreter also calls it.
func ipow(b, e int64) int64 {
	if e < 0 {
		if b == 1 {
			return 1
		}
		if b == -1 {
			if e%2 == 0 {
				return 1
			}
			return -1
		}
		return 0
	}
	out := int64(1)
	for i := int64(0); i < e; i++ {
		out *= b
	}
	return out
}

// Integer MAX/MIN compare through float64, as the interpreter's
// combine does; ties keep the left operand.

func imaxv(a, b int64) int64 {
	if float64(a) >= float64(b) {
		return a
	}
	return b
}

func iminv(a, b int64) int64 {
	if float64(a) <= float64(b) {
		return a
	}
	return b
}

func fmaxv(a, b float64) float64 {
	if a >= b {
		return a
	}
	return b
}

func fminv(a, b float64) float64 {
	if a <= b {
		return a
	}
	return b
}

func iabs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// signf is Fortran SIGN: |a| carrying b's sign (b == -0.0 gives +|a|,
// matching the interpreter's "< 0" test).
func signf(a, b float64) float64 {
	m := math.Abs(a)
	if b < 0 {
		return -m
	}
	return m
}

// fp/ip/bp build copy-in pointer temporaries for expression actuals.
func fp(v float64) *float64 { return &v }
func ip(v int64) *int64     { return &v }
func bp(v bool) *bool       { return &v }

// rev is one logged reduction contribution. Workers append to
// per-worker logs in execution order; the post-barrier replay applies
// worker 0's log, then worker 1's, ... — the exact serial iteration
// order — reproducing the sequential fold bit for bit.
type rev struct {
	sid int32
	isI bool
	ix  int64
	i   int64
	f   float64
}

func (e rev) asF() float64 {
	if e.isI {
		return float64(e.i)
	}
	return e.f
}

// shadow is the LRPD PD-test shadow state machine, which the
// interpreter's PDTest runs too; iteration numbers are 1-based so the
// zero value never collides.
type shadow struct {
	aw, ar, anp  []bool
	wIter, rIter []int64
	pend         []bool
	wA, mA       int64
}

func newShadow(n int64) *shadow {
	return &shadow{
		aw:    make([]bool, n),
		ar:    make([]bool, n),
		anp:   make([]bool, n),
		wIter: make([]int64, n),
		rIter: make([]int64, n),
		pend:  make([]bool, n),
	}
}

func (s *shadow) w(ix, it int64) {
	if s.pend[ix] {
		if s.rIter[ix] == it {
			s.anp[ix] = true
		} else {
			s.ar[ix] = true
		}
		s.pend[ix] = false
	}
	if s.wIter[ix] != it {
		s.wA++
		if !s.aw[ix] {
			s.aw[ix] = true
			s.mA++
		}
		s.wIter[ix] = it
	}
}

func (s *shadow) r(ix, it int64) {
	if s.wIter[ix] == it {
		return
	}
	if s.pend[ix] && s.rIter[ix] != it {
		s.ar[ix] = true
	}
	s.pend[ix] = true
	s.rIter[ix] = it
}

func (s *shadow) fin() {
	for i := range s.pend {
		if s.pend[i] {
			s.ar[i] = true
			s.pend[i] = false
		}
	}
}

// Marked speculative accesses: bounds-checked flat index computed by
// the caller, mark before data access, exactly as the interpreter
// orders element() / MarkRead / MarkWrite / Get / Set.

func lgF(a *arr, s *shadow, it, ix int64) float64 {
	s.r(ix, it)
	return a.f[ix]
}

func lgI(a *arr, s *shadow, it, ix int64) int64 {
	s.r(ix, it)
	return a.i[ix]
}

func lsF(a *arr, s *shadow, it, ix int64, v float64) {
	s.w(ix, it)
	a.f[ix] = v
}

func lsI(a *arr, s *shadow, it, ix int64, v int64) {
	s.w(ix, it)
	a.i[ix] = v
}

// lrpdPass merges per-worker shadows for one tested array and runs the
// PD test. Per-element flags OR together; wA sums; mA is recounted over
// the merged written set (elements written by several workers count
// once). A read left pending at a worker's block end finalizes to an
// exposed read — exactly the cross-iteration (here cross-block) read
// the sequential test would have seen.
func lrpdPass(shs []*shadow) bool {
	var first *shadow
	for _, s := range shs {
		if s != nil {
			first = s
			break
		}
	}
	if first == nil {
		return true
	}
	n := len(first.aw)
	aw := make([]bool, n)
	ar := make([]bool, n)
	anp := make([]bool, n)
	var wA, mA int64
	for _, s := range shs {
		if s == nil {
			continue
		}
		s.fin()
		wA += s.wA
		for i := 0; i < n; i++ {
			if s.aw[i] {
				aw[i] = true
			}
			if s.ar[i] {
				ar[i] = true
			}
			if s.anp[i] {
				anp[i] = true
			}
		}
	}
	flowAnti := false
	priv := true
	for i := 0; i < n; i++ {
		if aw[i] {
			mA++
			if ar[i] {
				flowAnti = true
			}
			if anp[i] {
				priv = false
			}
		}
	}
	outputDep := wA != mA
	return !flowAnti && (!outputDep || priv)
}

// mergeWritten copies elements each worker wrote from its speculative
// copy back into the shared array, in ascending worker order: the last
// writer in iteration order wins, as it does serially.
func mergeWritten(dst *arr, copies []arr, shs []*shadow) {
	for w := range copies {
		if shs[w] == nil {
			continue
		}
		aw := shs[w].aw
		if dst.isInt {
			for i, wrote := range aw {
				if wrote {
					dst.i[i] = copies[w].i[i]
				}
			}
		} else {
			for i, wrote := range aw {
				if wrote {
					dst.f[i] = copies[w].f[i]
				}
			}
		}
	}
}

// ---- state output (mirrors interp.CommonState) ----

// stLine prints one STATE line: hex floats round-trip exactly through
// strconv.ParseFloat, so the native oracle compares at tolerance 0.
func stLine(name string, vals []float64) {
	b := make([]byte, 0, 16+20*len(vals))
	b = append(b, "STATE "...)
	b = append(b, name...)
	for _, v := range vals {
		b = append(b, ' ')
		b = strconv.AppendFloat(b, v, 'x', -1, 64)
	}
	b = append(b, '\n')
	fmt.Print(string(b))
}

// flatF flattens an array to float64s, as CommonState does.
func flatF(a arr) []float64 {
	if a.isInt {
		out := make([]float64, len(a.i))
		for k, v := range a.i {
			out[k] = float64(v)
		}
		return out
	}
	return a.f
}

// ---- harness ----

var (
	nprocs     int64 = 1
	parEnabled       = true
)

func main() {
	p := flag.Int("p", 0, "worker team size (0 = emitted default, <0 = GOMAXPROCS)")
	serial := flag.Bool("serial", false, "force serial execution (the reference semantics)")
	reps := flag.Int("reps", 1, "repetitions (state resets between reps)")
	nostate := flag.Bool("nostate", false, "suppress STATE output")
	flag.Parse()
	nprocs = int64(*p)
	if nprocs == 0 {
		nprocs = defaultProcs
	}
	if nprocs < 1 {
		nprocs = int64(runtime.GOMAXPROCS(0))
	}
	if nprocs < 1 {
		nprocs = 1
	}
	parEnabled = !*serial
	start := time.Now()
	for r := 0; r < *reps; r++ {
		if r > 0 {
			resetState()
		}
		progMain()
	}
	fmt.Printf("ELAPSEDNS %d\n", time.Since(start).Nanoseconds())
	if !*nostate {
		printState()
	}
	leaked := true
	for t := 0; t < 100; t++ {
		if runtime.NumGoroutine() <= 1 {
			leaked = false
			break
		}
		time.Sleep(time.Millisecond)
	}
	if leaked {
		fmt.Printf("GOROUTINELEAK %d\n", runtime.NumGoroutine())
	} else {
		fmt.Println("GOROUTINES OK")
	}
}
