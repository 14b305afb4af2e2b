package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// rng is splitmix64: the benchmark's only source of randomness, so a
// seed fixes every input byte on any Go version.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, b := range []byte(stream) {
		r.s = r.s*0x100000001b3 ^ uint64(b)
	}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// program is one source text the workloads compile, with the counts
// the metrics need about it.
type program struct {
	name   string
	source string
	lines  int // non-blank source lines
}

func nonBlankLines(src string) int {
	n := 0
	for _, l := range strings.Split(src, "\n") {
		if strings.TrimSpace(l) != "" {
			n++
		}
	}
	return n
}

// variant returns src behind a comment line that no earlier request
// carried, which makes it a never-seen program to every cache keyed by
// source text while leaving what the compiler analyses untouched. The
// line has the same length for every seed, stream and n, so all seeds
// send the same number of bytes.
func variant(src string, seed uint64, stream string, n int) string {
	return fmt.Sprintf("C bench %016x %-6.6s %010d\n", seed, stream, n) + src
}

// compileBody is the POST /v1/compile body for one source.
func compileBody(src string) []byte {
	b, err := json.Marshal(map[string]string{"source": src})
	if err != nil {
		panic(err) // a string always marshals
	}
	return b
}

// edit is one step of the edit loop: which phase unit to touch
// (fuzzgen.EditOneUnit takes it modulo the phase count) and the
// literal that makes the edited text new.
type edit struct{ unit, tag int }

// editSeq is a seed's edit sequence. Tags count up from 1, so no two
// edits of a run produce the same source even when they land on the
// same unit.
type editSeq struct {
	r *rng
	n int
}

func newEditSeq(seed uint64) *editSeq { return &editSeq{r: newRNG(seed, "edit")} }

func (s *editSeq) next() edit {
	s.n++
	return edit{unit: s.r.intn(1 << 30), tag: s.n}
}

// workingSetSize is the serve_warm working set: half the service's
// default 1024-entry cache, so every entry stays resident.
const workingSetSize = 512

// workingSet builds the request bodies serve_warm draws from: size/len(progs)
// variants of every program.
func workingSet(progs []program, seed uint64, size int) (bodies [][]byte, which []int) {
	for i := 0; i < size; i++ {
		p := i % len(progs)
		bodies = append(bodies, compileBody(variant(progs[p].source, seed, "warm", i)))
		which = append(which, p)
	}
	return bodies, which
}
