package suite

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"polaris/internal/core"
	"polaris/internal/interp"
	"polaris/internal/machine"
)

// TestSimulatedMachinePinned pins the simulated machine's numbers for
// every suite program (and TRACK, the speculative loop's home, with
// track-fail, its all-failure twin) under each reduction form, forward
// and under Validate, at p = 8: time, work, parallel work, DOALL
// executions, PD-test outcomes and a hash of the final COMMON state.
// A change to the interpreter that moves any of them shows up as a
// diff of testdata/machine.golden; regenerate with -update only from a
// build whose numbers are the intended ones.
func TestSimulatedMachinePinned(t *testing.T) {
	var out bytes.Buffer
	for _, p := range append(All(), Track(), failingTrack) {
		compiled, err := core.Compile(p.Parse(), core.PolarisOptions())
		if err != nil {
			t.Fatalf("%s: compile: %v", p.Name, err)
		}
		for _, form := range []machine.ReductionStyle{machine.ReductionPrivate, machine.ReductionBlocked, machine.ReductionExpanded} {
			for _, validate := range []bool{false, true} {
				in := interp.New(compiled.Program, machine.Default().WithReductions(form))
				in.Parallel = true
				in.Validate = validate
				if err := in.Run(); err != nil {
					t.Fatalf("%s %s validate=%v: %v", p.Name, form, validate, err)
				}
				fmt.Fprintf(&out, "%s %s validate=%v time=%d work=%d parwork=%d doall=%d pdpass=%d pdfail=%d state=%016x\n",
					p.Name, form, validate, in.Time(), in.Work(), in.ParallelWork(),
					in.ParallelLoopExecs, in.LRPDPasses, in.LRPDFailures, stateHash(in.CommonState()))
			}
		}
	}
	checkGolden(t, "machine.golden", out.String())
}

// stateHash hashes a COMMON snapshot with its names sorted, so map
// order cannot move it: FNV-64a over each name and its values' bits.
func stateHash(state map[string][]float64) uint64 {
	names := make([]string, 0, len(state))
	for name := range state {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	var buf [8]byte
	for _, name := range names {
		h.Write([]byte(name))
		h.Write([]byte{0})
		for _, v := range state[name] {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
