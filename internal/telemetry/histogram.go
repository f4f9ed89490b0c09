package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket geometry: log-linear buckets in nanoseconds. Values
// below 2^(subBits+1) get one bucket each; above that, every power-of-two
// octave is split into 2^subBits linear sub-buckets, bounding the relative
// quantile error at 2^-subBits (12.5%). 496 buckets cover every int64
// duration.
const (
	subBits     = 3
	subBuckets  = 1 << subBits
	histBuckets = 2*subBuckets + 60*subBuckets
)

// histShards is the number of independently updated copies of the bucket
// array. Concurrent recorders from different goroutines land on different
// shards (spread by a hash of the recorded value's low bits, which carry
// clock noise), so the hot atomic adds rarely share a cache line.
const histShards = 8

type histShard struct {
	count atomic.Int64
	sum   atomic.Int64
	max   atomic.Int64
	// minInv is math.MaxInt64 minus the smallest observation, tracked as a
	// maximum so that the zero value means "no observation yet".
	minInv  atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Histogram is a lock-free duration histogram with p50/p95/p99-style
// quantiles, built for concurrent recording on hot paths: one record is a
// handful of atomic adds on a sharded bucket array, with no allocation
// and no mutex. The zero value is ready to use.
//
// Quantiles are estimated from bucket midpoints, accurate to one
// sub-bucket (≤12.5% relative error) and clamped to [Min, Max]; count,
// sum, min and max are exact.
type Histogram struct {
	shards [histShards]histShard
}

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(v uint64) int {
	if v < 2*subBuckets {
		return int(v)
	}
	msb := bits.Len64(v) - 1
	octave := msb - subBits
	within := int(v>>(msb-subBits)) - subBuckets
	return subBuckets + octave*subBuckets + within
}

// bucketBounds returns the inclusive lower bound and width of a bucket.
func bucketBounds(idx int) (lo, width int64) {
	if idx < 2*subBuckets {
		return int64(idx), 1
	}
	octave := idx/subBuckets - 1
	within := idx % subBuckets
	return int64(subBuckets+within) << octave, int64(1) << octave
}

// shardFor spreads records across shards by mixing the recorded value;
// the low bits of a wall-clock duration differ between concurrent
// recorders, so contending goroutines decorrelate.
func shardFor(v uint64) int {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 29
	return int(v & (histShards - 1))
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	s := &h.shards[shardFor(uint64(v))]
	// Extremes first: a reader that sees this value in a bucket also sees
	// it inside [Min, Max], so a quantile clamp never uses stale bounds.
	raiseTo(&s.max, v)
	raiseTo(&s.minInv, math.MaxInt64-v)
	s.buckets[bucketIndex(uint64(v))].Add(1)
	s.count.Add(1)
	s.sum.Add(v)
}

// raiseTo sets a to max(a, v) without a lock.
func raiseTo(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// Count returns the number of recorded durations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.shards {
		n += h.shards[i].count.Load()
	}
	return n
}

// Sum returns the total of all recorded durations.
func (h *Histogram) Sum() time.Duration {
	var n int64
	for i := range h.shards {
		n += h.shards[i].sum.Load()
	}
	return time.Duration(n)
}

// Max returns the largest recorded duration (0 when empty).
func (h *Histogram) Max() time.Duration {
	var m int64
	for i := range h.shards {
		if v := h.shards[i].max.Load(); v > m {
			m = v
		}
	}
	return time.Duration(m)
}

// Min returns the smallest recorded duration (0 when empty).
func (h *Histogram) Min() time.Duration {
	var inv int64
	for i := range h.shards {
		if v := h.shards[i].minInv.Load(); v > inv {
			inv = v
		}
	}
	if inv == 0 && h.Count() == 0 {
		return 0
	}
	return time.Duration(math.MaxInt64 - inv)
}

// merge collapses the shards into one bucket array; total is the summed
// count. Reading is atomic per bucket, not frozen — the usual
// consistent-enough view for reporting.
func (h *Histogram) merge() (merged [histBuckets]int64, total int64) {
	for i := range h.shards {
		for b := range merged {
			if n := h.shards[i].buckets[b].Load(); n != 0 {
				merged[b] += n
				total += n
			}
		}
	}
	return
}

// quantileOf reads the q-quantile out of a merged bucket array. The
// bucket midpoint is clamped to [least, peak], the exact smallest and
// largest observations, so a quantile never leaves the range of the values
// it summarises.
func quantileOf(merged *[histBuckets]int64, total int64, least, peak time.Duration, q float64) time.Duration {
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if float64(target) < q*float64(total) {
		target++
	}
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var cum int64
	for b, n := range merged {
		cum += n
		if cum >= target {
			lo, width := bucketBounds(b)
			return min(max(time.Duration(lo+width/2), least), peak)
		}
	}
	return time.Duration(0) // unreachable
}

// Quantile returns the q-quantile (0 < q ≤ 1) of the recorded durations,
// estimated as the midpoint of the bucket holding the target rank and
// clamped to [Min, Max]. An empty histogram returns 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	merged, total := h.merge()
	return quantileOf(&merged, total, h.Min(), h.Max(), q)
}

// Quantiles returns several quantiles in one pass over the buckets —
// cheaper than repeated Quantile calls, and the quantiles are consistent
// with each other (read from one merged view).
func (h *Histogram) Quantiles(qs ...float64) []time.Duration {
	merged, total := h.merge()
	least, peak := h.Min(), h.Max()
	out := make([]time.Duration, len(qs))
	for i, q := range qs {
		out[i] = quantileOf(&merged, total, least, peak, q)
	}
	return out
}

// reset zeroes the histogram. It is not atomic with respect to concurrent
// Observe calls; callers quiesce recording first (Registry.Reset is a
// test/startup facility, not a hot-path one).
func (h *Histogram) reset() {
	for i := range h.shards {
		s := &h.shards[i]
		s.count.Store(0)
		s.sum.Store(0)
		s.max.Store(0)
		s.minInv.Store(0)
		for b := range s.buckets {
			s.buckets[b].Store(0)
		}
	}
}
