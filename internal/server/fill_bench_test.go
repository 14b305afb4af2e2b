package server

import (
	"context"
	"testing"
	"time"

	"polaris/internal/core"
	"polaris/internal/fabric"
	"polaris/internal/fuzzgen"
	"polaris/internal/suite"
	"polaris/internal/telemetry"
)

// fillBenchSource is one whole-program entry the fill-or-compile pair
// runs: a route key covers a whole source, so the fill ships the whole
// program's entry however large it is.
type fillBenchSource struct {
	name, src string
}

// fillBenchSources is the 16 suite programs, then mega10k and mega50k.
// mega50k's entry is past maxFillPrealloc, so its body takes the
// incremental read.
func fillBenchSources() []fillBenchSource {
	var out []fillBenchSource
	for _, p := range suite.All() {
		out = append(out, fillBenchSource{p.Name, p.Source})
	}
	for _, spec := range fuzzgen.MegaCorpus()[:2] {
		out = append(out, fillBenchSource{spec.Name, spec.Generate().Source})
	}
	return out
}

// BenchmarkFillOrCompile is the measurement a peer tier owes its
// existence to: for each source, the two leaders a requester's cache
// miss can run — a fill from an owner that holds the key warm (through
// handlerTransport, so the owner's lookup and encode are on the clock
// and no socket is), and a local cold compile of the same source. The
// sources where fill/ beats compile/ are the ones the tier earns its
// keep on. Each op calls the leader directly, so the requester's cache
// never turns a fill into a hit.
func BenchmarkFillOrCompile(b *testing.B) {
	peers := map[string]string{"a": "http://a.invalid", "b": "http://b.invalid"}
	cfg := func(self string, ht *handlerTransport) Config {
		fab, err := fabric.New(fabric.Config{Self: self, Peers: peers, FillTimeout: time.Minute, Transport: ht})
		if err != nil {
			b.Fatal(err)
		}
		return Config{Fabric: fab, MaxSourceBytes: 64 << 20} // mega50k is 1.2 MB of source
	}
	ownerCfg := cfg("a", nil)
	owner := New(ownerCfg)
	requester := New(cfg("b", &handlerTransport{owner: owner.Handler()}))
	opt := core.PolarisOptions()
	ctx := context.Background()

	for _, s := range fillBenchSources() {
		src := sourceOwnedBy(b, ownerCfg.Fabric, "a", s.src)
		key := core.KeyOf(src, opt)
		if _, _, err := owner.compiled(ctx, owner.cache, key, opt, compileSource(key, src, nil)); err != nil {
			b.Fatalf("%s: warming the owner: %v", s.name, err)
		}
		b.Run("fill/"+s.name, func(b *testing.B) {
			fill, run := requester.compileFnFor(key, src, opt)
			errsBefore := requester.obs.Counters()["server_peer_errors"]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fill(ctx, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if run.outcome != telemetry.OutcomePeerHit || requester.obs.Counters()["server_peer_errors"] != errsBefore {
				b.Fatalf("%s: the fill fell back to a local compile (outcome %q)", s.name, run.outcome)
			}
			b.ReportMetric(float64(len(src)), "src_bytes")
		})
		b.Run("compile/"+s.name, func(b *testing.B) {
			compile := compileSource(key, src, nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compile(ctx, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(src)), "src_bytes")
		})
	}
}
