package fabric

import (
	"bytes"
	"runtime"
	"testing"

	"polaris/internal/core"
	"polaris/internal/obsv"
	"polaris/internal/suite"
)

// fuzzKey is the route key every seed entry is encoded under and every
// candidate is decoded for.
const fuzzKey = "fuzz-key"

// FuzzDecodeEntry feeds DecodeEntry what a hostile or broken owner
// could send ([bounded]): the 16 suite entries, their truncations and
// bit-flips, and whatever the fuzzer derives from them. The checksum is
// taken from the candidate itself — whoever controls the body controls
// the checksum header — so every check behind it is reached. DecodeEntry
// must reject the candidate or return a result that is a fixed point of
// the wire (encode, decode, encode gives the same bytes), never panic,
// and never allocate more than a fixed multiple of what it was handed.
//
// The multiple is set by encoding/json, not by this package: a
// three-byte "{}," in the decisions array becomes a 200-byte
// obsv.Decision, in a slice grown by appending — a few hundred bytes
// per input byte. Fill's 64 MiB body bound is what that multiplies.
func FuzzDecodeEntry(f *testing.F) {
	for _, p := range suite.All() {
		opt := core.PolarisOptions()
		cap := obsv.NewCapture(nil)
		opt.Observer = cap
		res, err := core.Compile(p.Parse(), opt)
		if err != nil {
			f.Fatalf("compile %s: %v", p.Name, err)
		}
		entry, _, err := EncodeEntry(fuzzKey, res, cap.Decisions())
		if err != nil {
			f.Fatalf("encode %s: %v", p.Name, err)
		}
		f.Add(entry)
		f.Add(entry[:len(entry)/2])
		flipped := bytes.Clone(entry)
		flipped[len(flipped)/3] ^= 0x04
		f.Add(flipped)
	}
	f.Add([]byte(`{"schema":1,"route_key":"fuzz-key","decisions":[{},{},{},{},{},{},{},{}]}`))

	f.Fuzz(func(t *testing.T, entry []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, decisions, err := DecodeEntry(entry, sumHex(entry), fuzzKey)
		runtime.ReadMemStats(&after)
		const multiple, fixed = 512, 1 << 20
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(multiple*len(entry)+fixed); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, over %d×input + %d", len(entry), got, multiple, fixed)
		}
		if err != nil {
			return
		}
		first, sum, err := EncodeEntry(fuzzKey, res, decisions)
		if err != nil {
			t.Fatalf("an accepted entry does not encode: %v", err)
		}
		res2, decisions2, err := DecodeEntry(first, sum, fuzzKey)
		if err != nil {
			t.Fatalf("an accepted entry's own encoding is rejected: %v", err)
		}
		second, _, err := EncodeEntry(fuzzKey, res2, decisions2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("an accepted entry is not a fixed point of the wire:\n%s\n%s", first, second)
		}
	})
}
