package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// the nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the 50th percentile of xs (0 for no samples). xs is
// not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first.
var tailLadder = []float64{99, 95, 90, 80}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the figure is one or two slow operations,
// not a property of the workload.
const minBeyond = 10

// tailPercentile picks the highest ladder percentile that still has at
// least minBeyond samples beyond it in a run of n samples. ok is false
// when no rung qualifies; the tail is then omitted, never approximated
// by a lower statistic.
func tailPercentile(n int) (pct float64, ok bool) {
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// latencyStats summarizes op durations in milliseconds: the median,
// and the tail chosen by tailPercentile (tailPct 0 when omitted).
type latencyStats struct {
	p50ms   float64
	tailms  float64
	tailPct float64
}

func summarize(durs []time.Duration) latencyStats {
	if len(durs) == 0 {
		return latencyStats{}
	}
	ms := make([]float64, len(durs))
	for i, d := range durs {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	st := latencyStats{p50ms: percentile(ms, 50)}
	if pct, ok := tailPercentile(len(ms)); ok {
		st.tailPct = pct
		st.tailms = percentile(ms, pct)
	}
	return st
}

// histogram is the wire form of the service's fixed-bucket latency
// histograms as GET /metrics renders them: per-bucket counts, one more
// bucket than bounds (the last is +Inf).
type histogram struct {
	BoundsNS []int64 `json:"bounds_ns"`
	Buckets  []int64 `json:"buckets"`
	Count    int64   `json:"count"`
}

// sub returns h minus an earlier snapshot of the same histogram, so
// set-up traffic drops out of the measured phase's quantiles.
func (h histogram) sub(before histogram) histogram {
	out := histogram{BoundsNS: h.BoundsNS, Buckets: append([]int64(nil), h.Buckets...), Count: h.Count - before.Count}
	for i := range before.Buckets {
		if i < len(out.Buckets) {
			out.Buckets[i] -= before.Buckets[i]
		}
	}
	return out
}

// quantileMS estimates the q-quantile in milliseconds by linear
// interpolation inside the bucket holding the target rank, the same
// estimate the service's own /metrics quantiles use. Samples in the
// overflow bucket read as the last finite bound.
func (h histogram) quantileMS(q float64) float64 {
	if h.Count <= 0 || len(h.BoundsNS) == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum int64
	for i, n := range h.Buckets {
		if n <= 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.BoundsNS) {
				break
			}
			var lo float64
			if i > 0 {
				lo = float64(h.BoundsNS[i-1])
			}
			hi := float64(h.BoundsNS[i])
			return (lo + (hi-lo)*(rank-float64(cum))/float64(n)) / 1e6
		}
		cum += n
	}
	return float64(h.BoundsNS[len(h.BoundsNS)-1]) / 1e6
}
