// Package edgecode implements the binary point code of §4: a compact
// (64×128 = 1 KB) binary map extracted from each video frame on the server
// and shipped reliably to the client as the recovery hint. The paper uses a
// PidiNet edge network fine-tuned end-to-end; this implementation uses a
// pixel-difference gradient detector with non-maximum thinning and an
// adaptive (target-density) binariser, plus the temporal history state He
// that stabilises the code across frames.
package edgecode

import (
	"cmp"
	"fmt"
	"math"

	"nerve/internal/telemetry"
	"nerve/internal/vmath"
)

// Default code geometry: 64 rows × 128 columns = 8192 bits = 1 KB.
const (
	DefaultW = 128
	DefaultH = 64
)

// Code is one frame's binary point code.
type Code struct {
	W, H int
	Bits []byte // row-major bitmap, 8 pixels per byte, MSB first
}

// NewCode allocates an all-zero code.
func NewCode(w, h int) *Code {
	return &Code{W: w, H: h, Bits: make([]byte, (w*h+7)/8)}
}

// Get returns the bit at (x, y).
func (c *Code) Get(x, y int) bool {
	i := y*c.W + x
	return c.Bits[i>>3]>>(7-uint(i&7))&1 == 1
}

// Set sets the bit at (x, y) to v.
func (c *Code) Set(x, y int, v bool) {
	i := y*c.W + x
	mask := byte(1) << (7 - uint(i&7))
	if v {
		c.Bits[i>>3] |= mask
	} else {
		c.Bits[i>>3] &^= mask
	}
}

// Ones returns the number of set bits.
func (c *Code) Ones() int {
	n := 0
	for _, b := range c.Bits {
		n += popcount(b)
	}
	return n
}

func popcount(b byte) int {
	n := 0
	for b != 0 {
		n += int(b & 1)
		b >>= 1
	}
	return n
}

// Density returns the fraction of set bits.
func (c *Code) Density() float64 {
	if c.W*c.H == 0 {
		return 0
	}
	return float64(c.Ones()) / float64(c.W*c.H)
}

// SizeBytes returns the wire size of the code payload.
func (c *Code) SizeBytes() int { return len(c.Bits) }

// Plane renders the code as a float plane with set bits at 255, for flow
// estimation and visualisation. The plane comes from the plane pool and is
// owned by the caller (vmath.Put it when done, or let the GC have it).
func (c *Code) Plane() *vmath.Plane {
	p := vmath.GetZeroed(c.W, c.H)
	for y := 0; y < c.H; y++ {
		for x := 0; x < c.W; x++ {
			if c.Get(x, y) {
				p.Set(x, y, 255)
			}
		}
	}
	return p
}

// SoftPlane renders the code blurred, which makes block-matching between
// codes better conditioned than on raw binary dots. The plane is
// pool-backed and caller-owned, like Plane.
func (c *Code) SoftPlane() *vmath.Plane {
	p := c.Plane()
	// In-place blur: ConvolveSeparableInto materialises the horizontal
	// pass into pooled scratch first, so dst may alias src.
	return vmath.GaussianBlurInto(p, p, 0.8)
}

// MarshalBinary encodes the code with a 4-byte geometry header.
func (c *Code) MarshalBinary() ([]byte, error) {
	if c.W > 0xFFFF || c.H > 0xFFFF {
		return nil, fmt.Errorf("edgecode: dimensions too large %dx%d", c.W, c.H)
	}
	out := make([]byte, 4+len(c.Bits))
	out[0] = byte(c.W >> 8)
	out[1] = byte(c.W)
	out[2] = byte(c.H >> 8)
	out[3] = byte(c.H)
	copy(out[4:], c.Bits)
	return out, nil
}

// UnmarshalBinary decodes a MarshalBinary payload.
func (c *Code) UnmarshalBinary(data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("edgecode: short payload (%d bytes)", len(data))
	}
	w := int(data[0])<<8 | int(data[1])
	h := int(data[2])<<8 | int(data[3])
	need := (w*h + 7) / 8
	if len(data)-4 < need {
		return fmt.Errorf("edgecode: payload %d bytes, need %d for %dx%d", len(data)-4, need, w, h)
	}
	c.W, c.H = w, h
	c.Bits = append(c.Bits[:0], data[4:4+need]...)
	return nil
}

// Extractor is the server-side encoder. It keeps the temporal history state
// He (an exponential moving average of the gradient field) that the paper's
// encoder RNN maintains, which suppresses flicker in the code. The zero
// value is not ready; use NewExtractor.
type Extractor struct {
	W, H int
	// TargetDensity is the fraction of bits the binariser aims to set
	// (adaptive threshold at the corresponding gradient percentile).
	TargetDensity float64
	// HistoryWeight blends the previous gradient state into the current
	// one (0 = stateless).
	HistoryWeight float64

	history *vmath.Plane // He; persistent pooled plane, refreshed in place

	sortScratch []float64 // percentile scratch, reused across frames

	// Byte-tier state (ExtractBytes): its own He plus reusable scratch so
	// the fixed-point path allocates nothing in steady state.
	histBytes      []int32 // Q12 magnitudes
	workBytes      *vmath.BytePlane
	gradScratch    []int32 // squared gradient magnitudes
	thinScratch    []int32
	pooledScratch  []int32 // Q12 magnitudes at code resolution
	intSortScratch []int
}

// NewExtractor returns an extractor producing w×h codes. Zero w/h select
// the default 128×64 (1 KB) geometry.
func NewExtractor(w, h int) *Extractor {
	if w <= 0 {
		w = DefaultW
	}
	if h <= 0 {
		h = DefaultH
	}
	return &Extractor{W: w, H: h, TargetDensity: 0.14, HistoryWeight: 0.25}
}

// Reset clears the temporal history (use at scene cuts / stream start).
func (e *Extractor) Reset() {
	vmath.Put(e.history)
	e.history = nil
	e.histBytes = nil
}

// Extract computes the binary point code of a frame. The frame may be any
// resolution; it is analysed at twice the code resolution and thinned.
func (e *Extractor) Extract(frame *vmath.Plane) *Code {
	defer telemetry.Start(telemetry.StageCode).Stop()
	// Work at 2× code resolution for crisper edges, then pool down. All
	// intermediates live in pooled planes for the duration of the call.
	ww, wh := e.W*2, e.H*2
	work := vmath.ResizeBilinearInto(vmath.Get(ww, wh), frame)
	grad := vmath.GradientMagnitudeInto(vmath.Get(ww, wh), work)

	// Non-maximum thinning: keep a pixel only if it is the maximum of its
	// 3×3 neighbourhood along the dominant gradient axis (cheap variant:
	// max of horizontal/vertical neighbours). Only maxima are written, so
	// the plane must start zeroed.
	thin := vmath.GetZeroed(ww, wh)
	for y := 0; y < wh; y++ {
		for x := 0; x < ww; x++ {
			g := grad.At(x, y)
			if g >= grad.AtClamp(x-1, y) && g >= grad.AtClamp(x+1, y) ||
				g >= grad.AtClamp(x, y-1) && g >= grad.AtClamp(x, y+1) {
				thin.Set(x, y, g)
			}
		}
	}

	// Pool 2×2 max down to code resolution (every pixel written).
	pooled := vmath.Get(e.W, e.H)
	for y := 0; y < e.H; y++ {
		for x := 0; x < e.W; x++ {
			m := thin.At(2*x, 2*y)
			if v := thin.At(2*x+1, 2*y); v > m {
				m = v
			}
			if v := thin.At(2*x, 2*y+1); v > m {
				m = v
			}
			if v := thin.At(2*x+1, 2*y+1); v > m {
				m = v
			}
			pooled.Set(x, y, m)
		}
	}

	// Temporal history He: blend with the previous gradient field so the
	// code carries motion-stable contours. Lerp is elementwise, so dst may
	// alias its first operand; the history plane is persistent pooled
	// state refreshed in place instead of recloned every frame.
	if e.history != nil && e.HistoryWeight > 0 {
		vmath.Lerp(pooled, pooled, e.history, float32(e.HistoryWeight))
	}
	if e.history == nil || e.history.W != e.W || e.history.H != e.H {
		vmath.Put(e.history)
		e.history = vmath.Get(e.W, e.H)
	}
	e.history.CopyFrom(pooled)

	// Adaptive threshold at the (1-TargetDensity) percentile.
	thresh := e.percentile(pooled.Pix, 1-e.TargetDensity)
	if thresh < 1e-3 {
		thresh = 1e-3
	}
	code := NewCode(e.W, e.H)
	for y := 0; y < e.H; y++ {
		for x := 0; x < e.W; x++ {
			if pooled.At(x, y) >= thresh {
				code.Set(x, y, true)
			}
		}
	}
	vmath.Put(work)
	vmath.Put(grad)
	vmath.Put(thin)
	vmath.Put(pooled)
	return code
}

// percentile returns the value a sorted copy of pix would hold at index
// int(p·(n−1)). It selects in a scratch buffer kept on the extractor, so
// the per-frame cost is one expected-linear selection.
func (e *Extractor) percentile(pix []float32, p float64) float32 {
	if len(pix) == 0 {
		return 0
	}
	if cap(e.sortScratch) < len(pix) {
		e.sortScratch = make([]float64, len(pix))
	}
	tmp := e.sortScratch[:len(pix)]
	for i, v := range pix {
		tmp[i] = float64(v)
	}
	return float32(nthElement(tmp, percentileIndex(p, len(tmp))))
}

// percentileIndex is the order-statistic index of the p-th percentile of
// n values: int(p·(n−1)), clamped to [0, n).
func percentileIndex(p float64, n int) int {
	return min(max(int(p*float64(n-1)), 0), n-1)
}

// nthElement reorders a so that a[k] holds the value a sorted copy of a
// (ordered by cmp.Less, as sort.Float64s and sort.Ints order) would hold
// at index k, and returns it: quickselect, a Hoare partition around a
// median-of-three pivot, in expected linear time instead of a full sort's
// n·log n. The k-th order statistic is one value however equal elements
// are arranged, so the result is the sorted one.
func nthElement[T cmp.Ordered](a []T, k int) T {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if cmp.Less(a[mid], a[lo]) {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if cmp.Less(a[hi], a[lo]) {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if cmp.Less(a[hi], a[mid]) {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for cmp.Less(a[i], pivot) {
				i++
			}
			for cmp.Less(pivot, a[j]) {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k] // j < k < i: equal to the pivot
		}
	}
	return a[k]
}

// Hamming returns the number of differing bits between two codes of equal
// geometry.
func Hamming(a, b *Code) (int, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("edgecode: geometry mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	n := 0
	for i := range a.Bits {
		n += popcount(a.Bits[i] ^ b.Bits[i])
	}
	return n, nil
}

// EdgeGuide upsamples the code to w×h and blurs it into a soft [0,1] edge
// map used by the recovery model's inpainting branch (diffusion is damped
// across edges). The result is pool-backed and caller-owned, like Plane.
func (c *Code) EdgeGuide(w, h int) *vmath.Plane {
	cp := c.Plane()
	soft := vmath.ResizeBilinearInto(vmath.Get(w, h), cp)
	vmath.Put(cp)
	vmath.GaussianBlurInto(soft, soft, 1.0)
	for i, v := range soft.Pix {
		g := float64(v) / 255
		if g > 1 {
			g = 1
		}
		soft.Pix[i] = float32(math.Sqrt(g)) // expand faint edges
	}
	return soft
}
