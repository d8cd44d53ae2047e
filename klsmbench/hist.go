package main

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// hist is a log-bucketed latency histogram over non-negative int64 values
// (nanoseconds). Values below 256 get exact buckets; above, each power of
// two is split into 128 linear sub-buckets, so a bucket's width is at most
// 1/128 of its lower bound and a quantile read by linear interpolation
// inside its bucket is off by under 0.8%. It is single-goroutine; merge
// per-goroutine histograms with add.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histExact   = 2 * histSub
	histMaxExp  = 40 // values at or above 2^40 ns (~18 min) clamp
	histBuckets = histExact + (histMaxExp-histSubBits-1)*histSub
)

func histIndex(v int64) int {
	if v < histExact {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - histSubBits - 1
	idx := histExact + (shift-1)*histSub + int(uint64(v)>>uint(shift)) - histSub
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// histBounds returns the half-open value range [lo, lo+width) of bucket i.
func histBounds(i int) (lo, width float64) {
	if i < histExact {
		return float64(i), 1
	}
	j := i - histExact
	shift := j/histSub + 1
	m := j%histSub + histSub
	return float64(uint64(m) << uint(shift)), float64(uint64(1) << uint(shift))
}

func (h *hist) record(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

func (h *hist) add(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 <= q <= 1), interpolating linearly
// inside the bucket that holds it; NaN when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, w := histBounds(i)
			return lo + w*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := histBounds(histBuckets - 1)
	return lo + w
}

// midMean returns the interquartile mean: the mean of the values between
// the 25th and the 75th percentile, each bucket's share counted at the
// midpoint of the integer values it holds; NaN when empty. Like the median
// it ignores the tails, but where the median of a two-mode distribution
// jumps from one mode to the other as their weights pass one half, the
// interquartile mean moves in proportion to the weights.
func (h *hist) midMean() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	from, to := 0.25*float64(h.n), 0.75*float64(h.n)
	var cum, sum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		a, b := max(cum, from), min(cum+float64(c), to)
		cum += float64(c)
		if b > a {
			lo, w := histBounds(i)
			sum += (b - a) * (lo + (w-1)/2)
		}
		if cum >= to {
			break
		}
	}
	return sum / (to - from)
}

// segments is how many equal slices a timed phase is cut into. Latencies
// and rates are reported as the median over the slices of each slice's
// figure, so one stall or one noisy second moves a reported value less.
const segments = 10

// segHist is one histogram per segment of a timed phase.
type segHist [segments]hist

func (s *segHist) record(seg int, v int64) { s[seg].record(v) }

func (s *segHist) add(o *segHist) {
	for i := range s {
		s[i].add(&o[i])
	}
}

func (s *segHist) count() uint64 {
	var n uint64
	for i := range s {
		n += s[i].n
	}
	return n
}

// quantile returns the median over the non-empty segments of each
// segment's q-quantile; NaN when every segment is empty.
func (s *segHist) quantile(q float64) float64 {
	return s.perSegment(func(h *hist) float64 { return h.quantile(q) })
}

// midMean returns the median over the non-empty segments of each
// segment's interquartile mean; NaN when every segment is empty.
func (s *segHist) midMean() float64 { return s.perSegment((*hist).midMean) }

func (s *segHist) perSegment(f func(*hist) float64) float64 {
	var qs []float64
	for i := range s {
		if s[i].n > 0 {
			qs = append(qs, f(&s[i]))
		}
	}
	if len(qs) == 0 {
		return math.NaN()
	}
	return median(qs)
}

// segClock cuts a timed phase of length d into segments: cur reports the
// segment in progress, or segments once the phase is over.
type segClock struct {
	seg    atomic.Int32
	bounds [segments + 1]time.Time
}

// run advances the clock through the phase, sleeping d/segments per
// segment, and returns when the phase is over.
func (c *segClock) run(d time.Duration) {
	c.bounds[0] = time.Now()
	for i := 1; i <= segments; i++ {
		time.Sleep(c.bounds[0].Add(d * time.Duration(i) / segments).Sub(time.Now()))
		c.bounds[i] = time.Now()
		c.seg.Store(int32(i))
	}
}

func (c *segClock) cur() int { return int(c.seg.Load()) }

// rates returns ops[i] / (segment i's length) for every segment.
func (c *segClock) rates(ops *[segments]int64) []float64 {
	var rs []float64
	for i := 0; i < segments; i++ {
		rs = append(rs, float64(ops[i])/c.bounds[i+1].Sub(c.bounds[i]).Seconds())
	}
	return rs
}

func (c *segClock) elapsed() time.Duration { return c.bounds[segments].Sub(c.bounds[0]) }
