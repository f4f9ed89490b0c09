package edgecode

import (
	"math"

	"nerve/internal/telemetry"
	"nerve/internal/vmath"
)

// ExtractBytes is the byte-domain twin of Extract for the fixed-point
// client tier: the whole pipeline — 2× bilinear resize, Sobel gradient,
// non-maximum thinning, 2×2 max pool, temporal history blend, percentile
// threshold — runs in uint8/int32 arithmetic on a BytePlane shadow,
// never round-tripping through float planes.
//
// The key to matching the float extractor bit-for-bit is that every
// per-pixel stage between the gradient and the threshold only ever
// *compares* magnitudes (NMS keeps the larger neighbour, pooling takes a
// max, the threshold is a rank statistic), and comparisons are invariant
// under strictly monotone maps. So the byte path carries the exact
// integer gx²+gy² (GradientSquaredBytesInto) through thinning and
// pooling — no per-pixel square root, no rounding ties — and only at
// code resolution (W·H values) converts to magnitude in Q12, where the
// map is still strictly monotone: adjacent representable squared values
// differ by at least 1/(2·1443)·4096 ≈ 1.4 Q12 steps, so distinct
// squares never collapse. On a frame whose bytes the float path also
// sees exactly (any integer-valued plane at 2× code resolution, where
// the resize is the identity), the emitted Bits are identical to
// Extract's by construction — the differential tests pin this. At other
// resolutions the Q15 byte resize may differ from the float resize by
// 1 LSB per pixel, which can flip isolated near-tie bits; tests bound
// that drift at 1 bit per 256.
//
// The history He is blended in the Q12 magnitude domain with the weight
// quantised once to round(HistoryWeight·256)/256. The byte path keeps
// its own He (histBytes), separate from the float path's: a client
// switching tiers mid-stream re-seeds the new tier's history from its
// first frame rather than sharing state across numeric domains. All
// scratch lives on the extractor, so steady state allocates nothing.
func (e *Extractor) ExtractBytes(frame *vmath.BytePlane) *Code {
	defer telemetry.Start(telemetry.StageCode).Stop()
	ww, wh := e.W*2, e.H*2

	if e.workBytes == nil || e.workBytes.W != ww || e.workBytes.H != wh {
		e.workBytes = vmath.NewBytePlane(ww, wh)
	}
	vmath.ResizeBilinearBytesInto(e.workBytes, frame)
	e.gradScratch = vmath.GradientSquaredBytesInto(e.gradScratch, e.workBytes)
	grad := e.gradScratch

	// Non-maximum thinning, same cheap variant as the float path: keep a
	// pixel only if it is ≥ both horizontal or both vertical neighbours
	// (replicate-clamped). Only maxima are written, so thin starts zeroed.
	if cap(e.thinScratch) < ww*wh {
		e.thinScratch = make([]int32, ww*wh)
	}
	thin := e.thinScratch[:ww*wh]
	for i := range thin {
		thin[i] = 0
	}
	for y := 0; y < wh; y++ {
		row := grad[y*ww : y*ww+ww]
		up := row
		if y > 0 {
			up = grad[(y-1)*ww : (y-1)*ww+ww]
		}
		down := row
		if y < wh-1 {
			down = grad[(y+1)*ww : (y+1)*ww+ww]
		}
		for x := 0; x < ww; x++ {
			g := row[x]
			xm, xp := x-1, x+1
			if xm < 0 {
				xm = 0
			}
			if xp >= ww {
				xp = ww - 1
			}
			if g >= row[xm] && g >= row[xp] || g >= up[x] && g >= down[x] {
				thin[y*ww+x] = g
			}
		}
	}

	// Pool 2×2 max down to code resolution (every pixel written), then
	// leave the squared domain: Q12 magnitude for the history blend.
	if cap(e.pooledScratch) < e.W*e.H {
		e.pooledScratch = make([]int32, e.W*e.H)
	}
	pooled := e.pooledScratch[:e.W*e.H]
	for y := 0; y < e.H; y++ {
		r0 := thin[2*y*ww : 2*y*ww+ww]
		r1 := thin[(2*y+1)*ww : (2*y+1)*ww+ww]
		for x := 0; x < e.W; x++ {
			m := r0[2*x]
			if v := r0[2*x+1]; v > m {
				m = v
			}
			if v := r1[2*x]; v > m {
				m = v
			}
			if v := r1[2*x+1]; v > m {
				m = v
			}
			pooled[y*e.W+x] = int32(math.Sqrt(float64(m))*4096 + 0.5)
		}
	}

	// Temporal history He in Q12 magnitudes, Q8 weight:
	// pooled = (pooled·(256−w) + hist·w + 128) >> 8. Max operand
	// 1443·4096·256 ≈ 1.5e9, inside int32.
	if w256 := int32(e.HistoryWeight*256 + 0.5); w256 > 0 && len(e.histBytes) == e.W*e.H {
		for i, cur := range pooled {
			pooled[i] = (cur*(256-w256) + e.histBytes[i]*w256 + 128) >> 8
		}
	}
	if cap(e.histBytes) < e.W*e.H {
		e.histBytes = make([]int32, e.W*e.H)
	}
	e.histBytes = e.histBytes[:e.W*e.H]
	copy(e.histBytes, pooled)

	// Adaptive threshold at the (1-TargetDensity) percentile — the same
	// order statistic the float path takes from its sorted copy. The
	// floor of one Q12 step (≈2.4e-4) matches the float path's 1e-3
	// noise floor: both sit below the smallest nonzero magnitude (1.0),
	// so on near-flat planes both paths set exactly the nonzero bits.
	thresh := e.percentileQ12(pooled, 1-e.TargetDensity)
	if thresh < 1 {
		thresh = 1
	}
	code := NewCode(e.W, e.H)
	for y := 0; y < e.H; y++ {
		for x := 0; x < e.W; x++ {
			if pooled[y*e.W+x] >= thresh {
				code.Set(x, y, true)
			}
		}
	}
	return code
}

// percentileQ12 returns the value a sorted copy of pix would hold at
// index int(p·(n−1)) — the identical order-statistic definition as the
// float extractor's percentile, on the integer Q12 magnitudes.
func (e *Extractor) percentileQ12(pix []int32, p float64) int32 {
	if len(pix) == 0 {
		return 0
	}
	if cap(e.intSortScratch) < len(pix) {
		e.intSortScratch = make([]int, len(pix))
	}
	tmp := e.intSortScratch[:len(pix)]
	for i, v := range pix {
		tmp[i] = int(v)
	}
	return int32(nthElement(tmp, percentileIndex(p, len(tmp))))
}
