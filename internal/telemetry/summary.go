package telemetry

import "time"

// Summary is a compact, JSON-ready export of one histogram: the shape a
// latency SLO is judged against. It is the schema used for the fetch
// latency blocks of BENCH_load.json (cmd/nerveload) and is consistent
// with the per-stage fields of Snapshot. All times are milliseconds of
// wall clock; percentiles inherit the histogram's ≤12.5% relative bucket
// error, while Count, MeanMs and MaxMs are exact.
type Summary struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Summary reads the histogram's aggregate in one pass over the buckets.
// An empty histogram summarises to all zeros.
func (h *Histogram) Summary() Summary {
	merged, total := h.merge()
	least, peak := h.Min(), h.Max()
	s := Summary{
		Count: total,
		P50Ms: ms(quantileOf(&merged, total, least, peak, 0.50)),
		P95Ms: ms(quantileOf(&merged, total, least, peak, 0.95)),
		P99Ms: ms(quantileOf(&merged, total, least, peak, 0.99)),
		MaxMs: ms(peak),
	}
	if total > 0 {
		s.MeanMs = ms(time.Duration(int64(h.Sum()) / total))
	}
	return s
}
