// Package flow implements coarse-to-fine pyramidal block-matching optical
// flow — the SpyNet substitute used to align consecutive binary point codes
// (recovery) and consecutive low-resolution frames (super-resolution). The
// convention matches motion compensation: Estimate(prev, cur) returns a
// field F such that cur(x, y) ≈ prev(x + U(x,y), y + V(x,y)).
package flow

import (
	"fmt"
	"math"

	"nerve/internal/telemetry"
	"nerve/internal/vmath"
)

// Field is a dense optical-flow field with per-pixel confidence in [0,1].
// Fields returned by Estimate and Resample are backed by the plane pool;
// when a per-frame caller is done with one it may call Release to recycle
// the storage. Skipping Release only costs garbage, never correctness.
type Field struct {
	W, H int
	U, V []float32
	Conf []float32

	// Pool-backed storage behind U/V/Conf, set only by pooled
	// constructors. nil for fields built with NewField or Clone.
	uP, vP, cP *vmath.Plane
}

// NewField allocates a zero field.
func NewField(w, h int) *Field {
	return &Field{W: w, H: h, U: make([]float32, w*h), V: make([]float32, w*h), Conf: make([]float32, w*h)}
}

// newPooledField builds a field over three dirty pooled planes. Every
// constructor that uses it writes all of U, V and Conf.
func newPooledField(w, h int) *Field {
	uP := vmath.Get(w, h)
	vP := vmath.Get(w, h)
	cP := vmath.Get(w, h)
	return &Field{W: w, H: h, U: uP.Pix, V: vP.Pix, Conf: cP.Pix, uP: uP, vP: vP, cP: cP}
}

// Release returns the field's backing storage to the plane pool and clears
// the field. Only pool-backed fields (from Estimate, Resample) return
// storage; for others Release just clears the slices. The field must not
// be used afterwards. Calling Release is always optional.
func (f *Field) Release() {
	if f == nil {
		return
	}
	vmath.Put(f.uP)
	vmath.Put(f.vP)
	vmath.Put(f.cP)
	f.uP, f.vP, f.cP = nil, nil, nil
	f.U, f.V, f.Conf = nil, nil, nil
}

// At returns (u, v, confidence) at the pixel.
func (f *Field) At(x, y int) (u, v, conf float32) {
	i := y*f.W + x
	return f.U[i], f.V[i], f.Conf[i]
}

// MeanMagnitude returns the average flow vector length.
func (f *Field) MeanMagnitude() float64 {
	if len(f.U) == 0 {
		return 0
	}
	var s float64
	for i := range f.U {
		s += math.Hypot(float64(f.U[i]), float64(f.V[i]))
	}
	return s / float64(len(f.U))
}

// Resample returns the field resized to w×h with vectors scaled by the
// resolution ratio, so the field remains valid at the new geometry. The
// result is pool-backed; Release it when done.
func (f *Field) Resample(w, h int) *Field {
	sx := float32(w) / float32(f.W)
	sy := float32(h) / float32(f.H)
	out := newPooledField(w, h)
	vmath.ResizeBilinearInto(out.uP, vmath.FromSlice(f.W, f.H, f.U))
	vmath.ResizeBilinearInto(out.vP, vmath.FromSlice(f.W, f.H, f.V))
	vmath.ResizeBilinearInto(out.cP, vmath.FromSlice(f.W, f.H, f.Conf))
	for i := range out.U {
		out.U[i] *= sx
		out.V[i] *= sy
	}
	return out
}

// Scale multiplies every vector in place (confidence untouched) and
// returns the field.
func (f *Field) Scale(s float32) *Field {
	for i := range f.U {
		f.U[i] *= s
		f.V[i] *= s
	}
	return f
}

// SnapIntegers rounds vector components that lie within thresh of an
// integer. Integer flow makes backward warping an exact pixel copy, which
// prevents the progressive blur that repeated bilinear resampling inflicts
// on recursively recovered frames (generation loss).
func (f *Field) SnapIntegers(thresh float32) *Field {
	for i := range f.U {
		f.U[i] = SnapInteger(f.U[i], thresh)
		f.V[i] = SnapInteger(f.V[i], thresh)
	}
	return f
}

// SnapInteger is one component of SnapIntegers: v rounded to the nearest
// integer (halves away from zero) when it lies within thresh of it, v
// otherwise.
func SnapInteger(v, thresh float32) float32 {
	r := roundFloat32(v)
	if d := v - r; d < thresh && d > -thresh {
		return r
	}
	return v
}

// roundFloat32 is float32(math.Round(float64(v))), bit for bit, without
// the float64 round trip: below 2²³ the magnitude is truncated and bumped
// at a fraction of one half (the subtraction is exact there), then the
// sign bit of v is restored, so -0.3 rounds to -0 as math.Round does.
// Larger magnitudes are already integers, and NaN and ±Inf round to
// themselves. It is small enough for SnapInteger to inline.
func roundFloat32(v float32) float32 {
	a := v
	if a < 0 {
		a = -a
	}
	if !(a < 1<<23) {
		return v
	}
	t := float32(int32(a))
	if a-t >= 0.5 {
		t++
	}
	if math.Float32bits(v)>>31 != 0 {
		t = -t
	}
	return t
}

// Clone deep-copies the field.
func (f *Field) Clone() *Field {
	g := NewField(f.W, f.H)
	copy(g.U, f.U)
	copy(g.V, f.V)
	copy(g.Conf, f.Conf)
	return g
}

// Options configures Estimate.
type Options struct {
	// Block is the matching block size (default 8).
	Block int
	// Levels is the pyramid depth (default 3).
	Levels int
	// Search is the per-level search radius in pixels (default 4).
	Search int
	// ZeroBias is the SAD penalty per pixel of candidate displacement
	// (default 0.05). Raise it for sparse inputs (binary point codes)
	// where spurious correspondences abound.
	ZeroBias float64
}

func (o Options) withDefaults() Options {
	if o.Block <= 0 {
		o.Block = 8
	}
	if o.Levels <= 0 {
		o.Levels = 3
	}
	if o.Search <= 0 {
		o.Search = 4
	}
	if o.ZeroBias == 0 {
		o.ZeroBias = 0.05
	}
	return o
}

// Estimate computes flow from prev to cur (both planes must share
// dimensions): cur(x,y) ≈ prev(x+U, y+V).
func Estimate(prev, cur *vmath.Plane, opts Options) *Field {
	defer telemetry.Start(telemetry.StageFlow).Stop()
	if prev.W != cur.W || prev.H != cur.H {
		panic(fmt.Sprintf("flow: size mismatch %dx%d vs %dx%d", prev.W, prev.H, cur.W, cur.H))
	}
	o := opts.withDefaults()

	// Build pyramids (level 0 = full resolution).
	levels := o.Levels
	for l := levels - 1; l > 0; l-- {
		if cur.W>>l < o.Block || cur.H>>l < o.Block {
			levels = l
		}
	}
	if levels < 1 {
		levels = 1
	}
	// Pyramid levels above 0 live in pooled planes for the duration of the
	// call. A fixed-size array keeps the bookkeeping itself off the heap
	// (Levels beyond the array are clamped — depth 8 halves 270p to
	// nothing anyway).
	if levels > maxPyramidLevels {
		levels = maxPyramidLevels
	}
	var pPrev, pCur [maxPyramidLevels]*vmath.Plane
	pPrev[0], pCur[0] = prev, cur
	for l := 1; l < levels; l++ {
		pPrev[l] = vmath.DownsampleInto(vmath.Get(pPrev[l-1].W/2, pPrev[l-1].H/2), pPrev[l-1], 2, 2)
		pCur[l] = vmath.DownsampleInto(vmath.Get(pCur[l-1].W/2, pCur[l-1].H/2), pCur[l-1], 2, 2)
	}

	var coarse *blockField
	for l := levels - 1; l >= 0; l-- {
		finer := matchLevel(pPrev[l], pCur[l], coarse, o)
		coarse.release()
		coarse = finer
	}
	out := coarse.dense(cur.W, cur.H)
	coarse.release()
	for l := 1; l < levels; l++ {
		vmath.Put(pPrev[l])
		vmath.Put(pCur[l])
	}
	return out
}

const maxPyramidLevels = 8

// blockField is flow at block granularity. Its three lanes live in pooled
// planes; release returns them.
type blockField struct {
	bw, bh int // blocks per row / column
	block  int
	u, v   []float32
	conf   []float32

	uP, vP, cP *vmath.Plane
}

func (b *blockField) release() {
	if b == nil {
		return
	}
	vmath.Put(b.uP)
	vmath.Put(b.vP)
	vmath.Put(b.cP)
	b.u, b.v, b.conf = nil, nil, nil
	b.uP, b.vP, b.cP = nil, nil, nil
}

// dense upsamples block flow to a per-pixel field. The result is
// pool-backed; the caller Releases it.
func (b *blockField) dense(w, h int) *Field {
	out := newPooledField(w, h)
	vmath.ResizeBilinearInto(out.uP, vmath.FromSlice(b.bw, b.bh, b.u))
	vmath.ResizeBilinearInto(out.vP, vmath.FromSlice(b.bw, b.bh, b.v))
	vmath.ResizeBilinearInto(out.cP, vmath.FromSlice(b.bw, b.bh, b.conf))
	return out
}

// matchLevel computes block flow at one pyramid level, seeded by the
// coarser level's result (vectors doubled).
func matchLevel(prev, cur *vmath.Plane, coarse *blockField, o Options) *blockField {
	bw := (cur.W + o.Block - 1) / o.Block
	bh := (cur.H + o.Block - 1) / o.Block
	uP := vmath.Get(bw, bh)
	vP := vmath.Get(bw, bh)
	cP := vmath.Get(bw, bh)
	out := &blockField{bw: bw, bh: bh, block: o.Block,
		u: uP.Pix, v: vP.Pix, conf: cP.Pix, uP: uP, vP: vP, cP: cP}
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			x0 := bx * o.Block
			y0 := by * o.Block
			var seedU, seedV float32
			if coarse != nil {
				cbx := bx * coarse.bw / bw
				cby := by * coarse.bh / bh
				ci := cby*coarse.bw + cbx
				seedU = coarse.u[ci] * 2
				seedV = coarse.v[ci] * 2
			}
			u, v, sad := searchBlock(prev, cur, x0, y0, int(seedU), int(seedV), o)
			i := by*bw + bx
			out.u[i] = float32(u)
			out.v[i] = float32(v)
			// Confidence: normalised inverse SAD per pixel.
			perPix := float64(sad) / float64(o.Block*o.Block)
			out.conf[i] = float32(1 / (1 + perPix/8))
		}
	}
	return out
}

// searchBlock does an exhaustive local search of radius o.Search around the
// seed.
func searchBlock(prev, cur *vmath.Plane, x0, y0, seedU, seedV int, o Options) (u, v int, best float64) {
	best = math.Inf(1)
	r := o.Search
	block := o.Block
	biasScale := o.ZeroBias * float64(block*block) / 64
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			cu := seedU + dx
			cv := seedV + dy
			sad := blockSAD(prev, cur, x0, y0, cu, cv, block, best)
			// Zero-bias regularisation keeps flat/sparse regions stable.
			sad += biasScale * (math.Abs(float64(cu)) + math.Abs(float64(cv)))
			if sad < best {
				best = sad
				u, v = cu, cv
			}
		}
	}
	return u, v, best
}

func blockSAD(prev, cur *vmath.Plane, x0, y0, u, v, block int, limit float64) float64 {
	var sad float64
	for y := 0; y < block; y++ {
		py := y0 + y
		if py >= cur.H {
			break
		}
		for x := 0; x < block; x++ {
			px := x0 + x
			if px >= cur.W {
				break
			}
			d := float64(cur.Pix[py*cur.W+px] - prev.AtClamp(px+u, py+v))
			if d < 0 {
				d = -d
			}
			sad += d
		}
		if sad >= limit {
			return sad
		}
	}
	return sad
}

// Extrapolate returns a copy of f with vectors scaled by steps — the
// constant-velocity motion extrapolation the no-hint recovery ablation uses
// to predict frame t+k from flow between t-1 and t.
func Extrapolate(f *Field, steps float64) *Field {
	return f.Clone().Scale(float32(steps))
}
