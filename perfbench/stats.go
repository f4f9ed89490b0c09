package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly above a percentile's
// rank before the percentile is reported: fewer, and the value is one or
// two outliers rather than a tail.
const minBeyond = 10

// samples is a set of raw measurements, kept whole so that percentiles are
// exact order statistics rather than histogram estimates.
type samples []float64

// quantile returns the nearest-rank q-quantile (0 < q < 1) of s and the
// sample count. ok is false when fewer than minBeyond samples lie beyond
// the rank; the value is then not a measured tail and must not be
// reported. A reported value is always one of the samples, so it never
// falls outside [min, max].
func (s samples) quantile(q float64) (v float64, n int, ok bool) {
	n = len(s)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, n, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if n-1-rank < minBeyond {
		return 0, n, false
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	return sorted[rank], n, true
}

// windowBeyond is how many samples each window of windowed leaves beyond
// its quantile. With fewer, each window's value rests on one or two
// events: with ten, origin-live's p99 spread half again as much between
// runs as with one window over the whole run.
const windowBeyond = 30

// windowed returns the q-quantile of s (in completion order) as the median
// of its value over consecutive windows, each window the smallest that
// leaves windowBeyond samples beyond the quantile. A stall confined to a
// few seconds then moves one window's value rather than the run's figure.
// With too few samples for two windows it is s.quantile(q). The lower
// median is taken, so the value is always one of the samples.
func (s samples) windowed(q float64) (v float64, n int, ok bool) {
	n = len(s)
	size := 1
	for ; size <= n; size++ {
		if size-int(math.Ceil(q*float64(size))) >= windowBeyond {
			break
		}
	}
	k := n / size
	if k < 2 {
		return s.quantile(q)
	}
	var per samples
	for i := 0; i < k; i++ {
		w, _, ok := s[i*n/k : (i+1)*n/k].quantile(q)
		if !ok {
			return 0, n, false
		}
		per = append(per, w)
	}
	return per.median(), n, true
}

// mean returns the arithmetic mean of s, or 0 when s is empty.
func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// median returns the middle sample (the lower one for an even count), or 0
// when s is empty. Unlike quantile it needs no tail, so it suits small
// sets such as repeated set-up times.
func (s samples) median() float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	return sorted[(len(sorted)-1)/2]
}

// fractionAbove returns the share of samples strictly greater than limit.
func (s samples) fractionAbove(limit float64) float64 {
	if len(s) == 0 {
		return 0
	}
	k := 0
	for _, v := range s {
		if v > limit {
			k++
		}
	}
	return float64(k) / float64(len(s))
}
