package telemetry

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestBucketIndexBounds verifies the bucket geometry: every value lands in
// a bucket whose bounds contain it, and indices are monotone in the value.
func TestBucketIndexBounds(t *testing.T) {
	values := []uint64{0, 1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 100, 1000, 1 << 20, 1<<40 + 12345, 1 << 62}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		values = append(values, uint64(rng.Int63()))
	}
	for _, v := range values {
		idx := bucketIndex(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range [0,%d)", v, idx, histBuckets)
		}
		lo, width := bucketBounds(idx)
		// Compare in uint64: lo+width overflows int64 in the top octave.
		if v < uint64(lo) || v-uint64(lo) >= uint64(width) {
			t.Fatalf("value %d not inside bucket %d bounds [%d, +%d)", v, idx, lo, width)
		}
	}
}

func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for v := uint64(0); v < 4096; v++ {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
	}
}

// TestQuantileOracle compares Quantile against a sorted-slice oracle using
// the same rank rule (ceil(q*n)). The estimate is the midpoint of the
// bucket holding the oracle value, so it can differ from the oracle by at
// most half a bucket width — within the documented 12.5% relative error.
func TestQuantileOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	var vals []int64
	for i := 0; i < 20000; i++ {
		// Log-uniform over ~6 decades, the realistic span of stage times.
		v := int64(float64(time.Microsecond) * (1 + rng.ExpFloat64()*float64(rng.Intn(1e6))))
		vals = append(vals, v)
		h.Observe(time.Duration(v))
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0} {
		rank := int(q * float64(len(vals)))
		if float64(rank) < q*float64(len(vals)) {
			rank++
		}
		if rank < 1 {
			rank = 1
		}
		oracle := float64(vals[rank-1])
		got := float64(h.Quantile(q))
		relErr := (got - oracle) / oracle
		if relErr < 0 {
			relErr = -relErr
		}
		if relErr > 0.125 {
			t.Errorf("Quantile(%v) = %v, oracle %v, rel err %.3f > 0.125", q, got, oracle, relErr)
		}
	}
}

func TestHistogramCountSumMaxExact(t *testing.T) {
	var h Histogram
	durations := []time.Duration{0, 1, 7, 15, 16, 100, 1e6, 33 * time.Millisecond}
	var sum time.Duration
	var max time.Duration
	for _, d := range durations {
		h.Observe(d)
		sum += d
		if d > max {
			max = d
		}
	}
	if got := h.Count(); got != int64(len(durations)) {
		t.Errorf("Count = %d, want %d", got, len(durations))
	}
	if got := h.Sum(); got != sum {
		t.Errorf("Sum = %v, want %v", got, sum)
	}
	if got := h.Max(); got != max {
		t.Errorf("Max = %v, want %v", got, max)
	}
	if got := h.Min(); got != 0 {
		t.Errorf("Min = %v, want 0", got)
	}
}

// TestQuantileNeverExceedsMax: with one observation every quantile is that
// observation, so p99 must equal the exact max rather than the midpoint of
// its bucket (3 ms sits at the bottom of a bucket whose midpoint is
// ~3.015 ms).
func TestQuantileNeverExceedsMax(t *testing.T) {
	var h Histogram
	h.Observe(3 * time.Millisecond)
	if p99, max := h.Quantile(0.99), h.Max(); p99 != max {
		t.Errorf("Quantile(0.99) = %v, Max = %v; want equal", p99, max)
	}
	if s := h.Summary(); s.P99Ms != s.MaxMs || s.P95Ms != s.MaxMs || s.P50Ms != s.MaxMs {
		t.Errorf("Summary quantiles %v/%v/%v ms, max %v ms; want all equal", s.P50Ms, s.P95Ms, s.P99Ms, s.MaxMs)
	}
}

// TestQuantileNeverBelowMin: 1001 ns sits near the top of the bucket
// [960, 1024) whose midpoint is 992 ns, so an unclamped p50 of a single
// 1001 ns observation would report a value below everything recorded.
func TestQuantileNeverBelowMin(t *testing.T) {
	var h Histogram
	h.Observe(1001)
	if got := h.Min(); got != 1001 {
		t.Fatalf("Min = %v, want 1001ns", got)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := h.Quantile(q); got != 1001 {
			t.Errorf("Quantile(%v) = %v, want 1001ns", q, got)
		}
	}
	if s := h.Summary(); s.P50Ms != s.MaxMs {
		t.Errorf("Summary p50 %v ms, max %v ms; want equal", s.P50Ms, s.MaxMs)
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Sum() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(-time.Second) // clamps to zero
	if h.Count() != 1 || h.Sum() != 0 || h.Quantile(1) != 0 {
		t.Fatalf("negative observation must count as zero: count=%d sum=%v q1=%v",
			h.Count(), h.Sum(), h.Quantile(1))
	}
}

// TestHistogramConcurrent exercises concurrent recording and reading; its
// value is under -race (the CI race gate runs this package).
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(rng.Int63n(int64(50 * time.Millisecond))))
			}
		}(g)
	}
	// Readers race the writers; results just have to be tear-free, which
	// the race detector checks.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = h.Quantile(0.95)
				_ = h.Count()
				_ = h.Max()
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("Count = %d, want %d", got, goroutines*perG)
	}
}
