package main

// quantile.go computes percentiles exactly from raw samples. A percentile
// is reported only when at least minBeyond samples lie above it, so a p99
// always rests on a tail of at least ten observations instead of on one or
// two outliers (or on a histogram bucket edge).

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a percentile
// before it is reported.
const minBeyond = 10

// samples is a set of raw observations in one unit.
type samples []float64

// quantile returns the q-quantile (0 < q < 1) by nearest rank on the
// sorted samples, and whether it is reportable: at least minBeyond samples
// rank above it. s is sorted in place.
func (s samples) quantile(q float64) (float64, bool) {
	n := len(s)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], n-1-i >= minBeyond
}

// tailWindow is the fewest samples in one window of a windowed tail
// percentile: enough for ten beyond a p99.
const tailWindow = 1000

// windowedQuantile splits s into as many consecutive, equal windows of at
// least tailWindow samples as it holds and returns the median over the
// windows of each one's q-quantile, so a few disturbed stretches of a run
// cannot set its tail figure. It is reportable when every window's is.
func (s samples) windowedQuantile(q float64) (v float64, per []float64, ok bool) {
	windows := max(1, len(s)/tailWindow)
	per = make([]float64, windows)
	ok = len(s) > 0
	for w := range per {
		part := append(samples(nil), s[w*len(s)/windows:(w+1)*len(s)/windows]...)
		v, pok := part.quantile(q)
		per[w], ok = v, ok && pok
	}
	return median(append([]float64(nil), per...)), per, ok
}

func (s samples) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// durations converts nanosecond durations to samples in the given unit.
func durations(ns []int64, unit time.Duration) samples {
	out := make(samples, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / float64(unit)
	}
	return out
}

// median returns the middle value of vs (mean of the two middles for an
// even count); vs is sorted in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}
