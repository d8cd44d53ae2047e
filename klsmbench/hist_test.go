package main

import (
	"math"
	"sort"
	"testing"

	"klsm/internal/xrand"
)

// TestHistQuantileError checks every reported quantile against the exact
// order statistic of the same samples: the relative error must stay within
// one sub-bucket (1/128) across seven decades.
func TestHistQuantileError(t *testing.T) {
	src := xrand.NewSeeded(1)
	var h hist
	vals := make([]int64, 200000)
	for i := range vals {
		// Log-uniform over [1, 1e7) ns, plus some exact small values.
		v := int64(math.Exp(src.Float64() * math.Log(1e7)))
		vals[i] = v
		h.record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999} {
		exact := float64(vals[int(q*float64(len(vals)))])
		got := h.quantile(q)
		if rel := math.Abs(got-exact) / math.Max(exact, 1); rel > 1.0/histSub && math.Abs(got-exact) > 1 {
			t.Errorf("q=%v: got %.1f, exact %.1f (rel err %.4f)", q, got, exact, rel)
		}
	}
}

// TestHistMidMean checks the interquartile mean against the exact mean of
// the middle half of the same samples, on a log-uniform and on a two-mode
// distribution like engine_uniform's TryDeleteMin latencies.
func TestHistMidMean(t *testing.T) {
	src := xrand.NewSeeded(3)
	for name, draw := range map[string]func() int64{
		"log-uniform": func() int64 { return int64(math.Exp(src.Float64() * math.Log(1e7))) },
		"two modes": func() int64 {
			if src.Intn(2) == 0 {
				return 70 + int64(src.Intn(20))
			}
			return 110 + int64(src.Intn(40))
		},
	} {
		var h hist
		vals := make([]int64, 200000)
		for i := range vals {
			vals[i] = draw()
			h.record(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		var sum float64
		mid := vals[len(vals)/4 : len(vals)*3/4]
		for _, v := range mid {
			sum += float64(v)
		}
		exact := sum / float64(len(mid))
		if got := h.midMean(); math.Abs(got-exact)/exact > 1.0/histSub {
			t.Errorf("%s: got %.2f, exact %.2f", name, got, exact)
		}
	}
}

// TestHistBuckets checks that bucket bounds tile the value range: every
// value lands in the bucket whose bounds contain it.
func TestHistBuckets(t *testing.T) {
	src := xrand.NewSeeded(2)
	for i := 0; i < 100000; i++ {
		v := int64(src.Uint64() >> uint(src.Intn(64)+25))
		lo, w := histBounds(histIndex(v))
		if float64(v) < lo || float64(v) >= lo+w {
			t.Fatalf("value %d in bucket [%v, %v)", v, lo, lo+w)
		}
	}
	var h hist
	if !math.IsNaN(h.quantile(0.5)) || !math.IsNaN(h.midMean()) {
		t.Fatal("empty histogram must report NaN")
	}
}
