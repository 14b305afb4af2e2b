package main

import (
	"testing"
	"time"
)

// TestTailPercentileRule: a tail is reported only at a percentile with
// at least ten samples beyond it, and omitted otherwise.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1, 0, false}, {19, 0, false}, {49, 0, false},
		{50, 80, true}, {99, 80, true},
		{100, 90, true}, {199, 90, true},
		{200, 95, true}, {999, 95, true},
		{1000, 99, true}, {80000, 99, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSummarize(t *testing.T) {
	var durs []time.Duration
	for i := 100; i >= 1; i-- {
		durs = append(durs, time.Duration(i)*time.Millisecond)
	}
	st := summarize(durs)
	if st.p50ms != 50 || st.tailPct != 90 || st.tailms != 90 {
		t.Errorf("summarize(1..100 ms) = %+v; want p50 50, p90 90", st)
	}
	st = summarize(durs[:20])
	if st.tailPct != 0 || st.tailms != 0 {
		t.Errorf("20 samples: tail %v at p%v; want it omitted", st.tailms, st.tailPct)
	}
	if st := summarize(nil); st != (latencyStats{}) {
		t.Errorf("summarize(nil) = %+v", st)
	}
}

// TestHistogramQuantile checks the bucket interpolation and that an
// earlier snapshot subtracts out.
func TestHistogramQuantile(t *testing.T) {
	h := histogram{BoundsNS: []int64{1e6, 2e6, 4e6}, Buckets: []int64{10, 10, 0, 0}, Count: 20}
	if got := h.quantileMS(0.5); got != 1 {
		t.Errorf("p50 = %v ms, want 1", got)
	}
	if got := h.quantileMS(0.75); got != 1.5 {
		t.Errorf("p75 = %v ms, want 1.5", got)
	}
	before := histogram{BoundsNS: h.BoundsNS, Buckets: []int64{10, 0, 0, 0}, Count: 10}
	d := h.sub(before)
	if d.Count != 10 || d.quantileMS(0.5) != 1.5 {
		t.Errorf("delta count %d p50 %v; want 10, 1.5", d.Count, d.quantileMS(0.5))
	}
	if got := (histogram{}).quantileMS(0.5); got != 0 {
		t.Errorf("empty histogram p50 = %v", got)
	}
}
