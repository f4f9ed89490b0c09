package vmath

import (
	"math"
	"sync"

	"nerve/internal/par"
)

// ConvolveInto applies a general k×k kernel (odd k, row-major) to p with
// replicate border padding, writing into dst (same size as p). Output rows
// are independent, so row bands run on the shared pool with
// pool-size-independent results. dst must not alias p.
func ConvolveInto(dst, p *Plane, kernel []float32, k int) *Plane {
	if k%2 == 0 || len(kernel) != k*k {
		panic("vmath: Convolve needs an odd k×k kernel")
	}
	r := k / 2
	dst = ensure(dst, p.W, p.H)
	par.ForRows(p.H, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < p.W; x++ {
				var s float32
				for j := 0; j < k; j++ {
					for i := 0; i < k; i++ {
						s += kernel[j*k+i] * p.AtClamp(x+i-r, y+j-r)
					}
				}
				dst.Pix[y*p.W+x] = s
			}
		}
	})
	return dst
}

// Convolve applies a general k×k kernel (odd k, row-major) to p with
// replicate border padding.
func Convolve(p *Plane, kernel []float32, k int) *Plane {
	return ConvolveInto(NewPlane(p.W, p.H), p, kernel, k)
}

// ConvolveSeparableInto applies a separable filter — the horizontal tap
// vector kx, then the vertical tap vector ky (both odd length), replicate
// padding — writing into dst (same size as p). The intermediate comes from
// the plane pool and is returned to it, so the steady-state cost is zero
// allocations. dst MAY alias p: the source is fully consumed into the
// intermediate before dst is written. Both passes parallelise over row
// bands; the vertical pass reads the fully written horizontal
// intermediate, which the pool's completion barrier guarantees.
//
// Every output is the float32 sum s += w·v over the taps in ascending
// order from s = 0, exactly as a per-tap AtClamp loop would form it, so the
// result is bit-identical to that loop; only the loop structure differs.
// The horizontal pass clamps columns only within the kernel radius of the
// left and right borders; between them it accumulates the row tap by tap
// over the whole interior span, with no clamping. The vertical pass clamps
// one row index per tap and accumulates whole rows the same way.
func ConvolveSeparableInto(dst, p *Plane, kx, ky []float32) *Plane {
	if len(kx)%2 == 0 || len(ky)%2 == 0 {
		panic("vmath: ConvolveSeparable needs odd tap vectors")
	}
	dst = ensure(dst, p.W, p.H)
	w, h := p.W, p.H
	rx := len(kx) / 2
	tmp := Get(w, h)
	// Columns [lo, hi) have the whole horizontal window inside the row.
	lo, hi := rx, w-rx
	if hi < lo {
		lo, hi = w, w
	}
	par.ForRows(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			row := p.Pix[y*w : y*w+w]
			out := tmp.Pix[y*w : y*w+w]
			for x := 0; x < lo; x++ {
				out[x] = convClampedTap(row, x-rx, kx)
			}
			if lo < hi {
				mid := out[lo:hi]
				clear(mid)
				for i, wt := range kx {
					src := row[lo-rx+i : hi-rx+i]
					for x := range mid {
						mid[x] += wt * src[x]
					}
				}
			}
			for x := hi; x < w; x++ {
				out[x] = convClampedTap(row, x-rx, kx)
			}
		}
	})
	ry := len(ky) / 2
	par.ForRows(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			out := dst.Pix[y*w : y*w+w]
			clear(out)
			for j, wt := range ky {
				yy := y + j - ry
				if yy < 0 {
					yy = 0
				} else if yy >= h {
					yy = h - 1
				}
				src := tmp.Pix[yy*w : yy*w+w]
				for x := range out {
					out[x] += wt * src[x]
				}
			}
		}
	})
	Put(tmp)
	return dst
}

// convClampedTap is one border output of the horizontal pass: the taps of
// k over row starting at column x0, with columns clamped to the row.
func convClampedTap(row []float32, x0 int, k []float32) float32 {
	var s float32
	for i, wt := range k {
		xx := x0 + i
		if xx < 0 {
			xx = 0
		} else if xx >= len(row) {
			xx = len(row) - 1
		}
		s += wt * row[xx]
	}
	return s
}

// ConvolveSeparable applies a separable filter: first the horizontal tap
// vector kx, then the vertical tap vector ky (both odd length), with
// replicate padding. This is the fast path used by blurs.
func ConvolveSeparable(p *Plane, kx, ky []float32) *Plane {
	return ConvolveSeparableInto(NewPlane(p.W, p.H), p, kx, ky)
}

// GaussianKernel1D returns normalised Gaussian taps for the given sigma.
// The radius is ceil(3*sigma), clamped to at least 1.
func GaussianKernel1D(sigma float64) []float32 {
	if sigma <= 0 {
		return []float32{1}
	}
	r := int(math.Ceil(3 * sigma))
	if r < 1 {
		r = 1
	}
	taps := make([]float32, 2*r+1)
	var sum float64
	for i := -r; i <= r; i++ {
		v := math.Exp(-float64(i*i) / (2 * sigma * sigma))
		taps[i+r] = float32(v)
		sum += v
	}
	for i := range taps {
		taps[i] = float32(float64(taps[i]) / sum)
	}
	return taps
}

// GaussianBlurInto blurs p into dst with an isotropic Gaussian of the given
// sigma. dst may alias p (see ConvolveSeparableInto). Per-frame callers
// should cache GaussianKernel1D taps and call ConvolveSeparableInto
// directly to avoid recomputing them.
func GaussianBlurInto(dst, p *Plane, sigma float64) *Plane {
	taps := gaussianTaps(sigma)
	return ConvolveSeparableInto(dst, p, taps, taps)
}

// gaussTaps caches Gaussian tap vectors per sigma: the pipeline blurs with
// a handful of fixed sigmas every frame, and caching keeps the warm
// GaussianBlurInto path allocation-free. Cached slices are shared and must
// never be mutated.
var gaussTaps struct {
	sync.RWMutex
	m map[float64][]float32
}

func gaussianTaps(sigma float64) []float32 {
	gaussTaps.RLock()
	t := gaussTaps.m[sigma]
	gaussTaps.RUnlock()
	if t != nil {
		return t
	}
	t = GaussianKernel1D(sigma)
	gaussTaps.Lock()
	if gaussTaps.m == nil {
		gaussTaps.m = make(map[float64][]float32)
	}
	gaussTaps.m[sigma] = t
	gaussTaps.Unlock()
	return t
}

// GaussianBlur blurs p with an isotropic Gaussian of the given sigma.
func GaussianBlur(p *Plane, sigma float64) *Plane {
	return GaussianBlurInto(NewPlane(p.W, p.H), p, sigma)
}

// BoxBlurInto blurs p into dst with a (2r+1)×(2r+1) box filter; r < 1
// copies p. dst may alias p.
func BoxBlurInto(dst, p *Plane, r int) *Plane {
	if r < 1 {
		dst = ensure(dst, p.W, p.H)
		if dst != p {
			dst.CopyFrom(p)
		}
		return dst
	}
	n := 2*r + 1
	taps := make([]float32, n)
	for i := range taps {
		taps[i] = 1 / float32(n)
	}
	return ConvolveSeparableInto(dst, p, taps, taps)
}

// BoxBlur blurs p with a (2r+1)×(2r+1) box filter.
func BoxBlur(p *Plane, r int) *Plane {
	return BoxBlurInto(NewPlane(p.W, p.H), p, r)
}

var (
	sobelXKernel = []float32{
		-1, 0, 1,
		-2, 0, 2,
		-1, 0, 1,
	}
	sobelYKernel = []float32{
		-1, -2, -1,
		0, 0, 0,
		1, 2, 1,
	}
)

// SobelXInto and SobelYInto compute horizontal and vertical Sobel
// gradients into dst. dst must not alias p.
func SobelXInto(dst, p *Plane) *Plane { return ConvolveInto(dst, p, sobelXKernel, 3) }

// SobelYInto computes the vertical Sobel gradient into dst.
func SobelYInto(dst, p *Plane) *Plane { return ConvolveInto(dst, p, sobelYKernel, 3) }

// SobelX and SobelY compute horizontal and vertical Sobel gradients.
func SobelX(p *Plane) *Plane { return SobelXInto(NewPlane(p.W, p.H), p) }

func SobelY(p *Plane) *Plane { return SobelYInto(NewPlane(p.W, p.H), p) }

// GradientsInto computes both Sobel gradients of p in a single pass,
// writing the horizontal response into gx and the vertical into gy (both
// sized like p). Neither destination may alias p. The per-pixel tap order
// matches ConvolveInto, so results are bit-identical to SobelX/SobelY.
func GradientsInto(gx, gy, p *Plane) *Plane {
	gx = ensure(gx, p.W, p.H)
	gy = ensure(gy, p.W, p.H)
	par.ForRows(p.H, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < p.W; x++ {
				v00 := p.AtClamp(x-1, y-1)
				v10 := p.AtClamp(x, y-1)
				v20 := p.AtClamp(x+1, y-1)
				v01 := p.AtClamp(x-1, y)
				v21 := p.AtClamp(x+1, y)
				v02 := p.AtClamp(x-1, y+1)
				v12 := p.AtClamp(x, y+1)
				v22 := p.AtClamp(x+1, y+1)
				var sx float32
				sx += -v00
				sx += v20
				sx += -2 * v01
				sx += 2 * v21
				sx += -v02
				sx += v22
				var sy float32
				sy += -v00
				sy += -2 * v10
				sy += -v20
				sy += v02
				sy += 2 * v12
				sy += v22
				gx.Pix[y*p.W+x] = sx
				gy.Pix[y*p.W+x] = sy
			}
		}
	})
	return gx
}

// GradientMagnitudeInto computes sqrt(gx²+gy²) of the Sobel gradients of p
// in one fused pass, with pooled scratch for the two gradient planes. dst
// must not alias p.
func GradientMagnitudeInto(dst, p *Plane) *Plane {
	dst = ensure(dst, p.W, p.H)
	gx := Get(p.W, p.H)
	gy := Get(p.W, p.H)
	GradientsInto(gx, gy, p)
	for i := range dst.Pix {
		dst.Pix[i] = float32(math.Hypot(float64(gx.Pix[i]), float64(gy.Pix[i])))
	}
	Put(gx)
	Put(gy)
	return dst
}

// GradientMagnitude returns sqrt(gx²+gy²) per pixel of the Sobel gradients.
func GradientMagnitude(p *Plane) *Plane {
	return GradientMagnitudeInto(NewPlane(p.W, p.H), p)
}

// LaplacianInto applies the 4-connected Laplacian kernel into dst, used by
// the enhancement branch for residual sharpening. dst must not alias p.
func LaplacianInto(dst, p *Plane) *Plane {
	return ConvolveInto(dst, p, laplacianKernel, 3)
}

var laplacianKernel = []float32{
	0, 1, 0,
	1, -4, 1,
	0, 1, 0,
}

// Laplacian applies the 4-connected Laplacian kernel.
func Laplacian(p *Plane) *Plane {
	return LaplacianInto(NewPlane(p.W, p.H), p)
}

// UnsharpMaskInto sharpens p into dst by amount·(p − blur(p, sigma)),
// clamping nothing. The blur is materialised into pooled scratch first, so
// dst MAY alias p.
func UnsharpMaskInto(dst, p *Plane, sigma, amount float64) *Plane {
	dst = ensure(dst, p.W, p.H)
	blur := Get(p.W, p.H)
	GaussianBlurInto(blur, p, sigma)
	a := float32(amount)
	for i := range dst.Pix {
		dst.Pix[i] = p.Pix[i] + a*(p.Pix[i]-blur.Pix[i])
	}
	Put(blur)
	return dst
}

// UnsharpMask sharpens p by amount·(p − blur(p, sigma)), clamping nothing;
// the caller decides whether to clamp to [0,255].
func UnsharpMask(p *Plane, sigma, amount float64) *Plane {
	return UnsharpMaskInto(NewPlane(p.W, p.H), p, sigma, amount)
}
